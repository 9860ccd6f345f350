package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The full-mode outputs of the membench experiments and of fig7, the
// magicfilter sweep on the same cache engine, pinned by SHA-256. Full
// mode runs working sets and pass counts the quick goldens do not
// reach, so a fast path of the cache engine (batched runs, the
// steady-pass certificate, the settling forecast, set-major passes, the
// TLB's closed-form fill, the bulk spill frame) that moves a digit
// there fails here. The membench digests were taken from the
// element-at-a-time-equivalent engine before the forecast and the
// set-major route existed, fig7's before its sweep shared one hierarchy
// and spilled in bulk. Well under a second without the race detector.
func TestFullModeMembenchDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("full-mode membench sweeps under -race: the membench equivalence suites cover the engine there")
	}
	want := map[string]string{
		"scale-membench": "6d1a010caaa2f217913230b56968bfa668723af9d40b51cd10cdde4d173b99bc",
		"locality":       "5621fbc275b6da638bc7ed9afeb6a4de7028aef7ec83d3d6feccb12c83dd75bd",
		"fig5":           "46e7b81a101f7fe4d812e32ce5296f46ae6eabad5bf2946f32fe06e110452628",
		"fig6":           "dcbebe6045756b3e8e9b2157f13f632fd5dfbd741b8f64fe85707caf274f734b",
		"pagealloc":      "992c439e241f4bf58e75e90c811d4180a2d65c23ad70d79b93f837a7d65ef5d2",
		"fig7":           "6d614d5249af885f1abe8c3384017ed8018e173d3be09ffe384415523ba10ba3",
	}
	for _, id := range []string{"scale-membench", "locality", "fig5", "fig6", "pagealloc", "fig7"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Options{}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[id] {
			t.Errorf("%s full-mode output digest %s, want %s (%d bytes)", id, got, want[id], buf.Len())
		}
	}
}
