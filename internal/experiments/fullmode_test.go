package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"montblanc/internal/fault"
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

// The full-mode outputs of the traced simulations, pinned by SHA-256:
// fig4 renders its Gantt chart and congestion report from the trace,
// energy-phases and the resilience experiments integrate it with
// EnergyByState. The last case reruns resilience-sweep under the fault
// schedule of the CI determinism smoke (MTBF 40 s, downtime 2 s), so
// traces with outage gaps are pinned too. The digests were taken while
// the trace was still one flat slice stable-sorted by (start, rank),
// before it became rank-major.
func TestFullModeTraceDigests(t *testing.T) {
	faulty := &fault.Spec{MTBFSeconds: 40, DowntimeSeconds: 2}
	for _, c := range []struct {
		id    string
		fault *fault.Spec
		want  string
	}{
		{"fig4", nil, "7fa814047648ca85998bff978403cd25efeb348946d3fad05de1cffab3e40ed5"},
		{"energy-phases", nil, "4ddad868a42b8b78ff07f41a9a9c2b5cfc318ce1115eb4f484dae68d35016beb"},
		{"resilience-daly", nil, "18f1732782b2d43821b96185376b2d6085731a92e726c69c92cd1e55df3eeb03"},
		{"resilience-sweep", nil, "10f39699a92129800d529ceea15cb6fa20bf74066bc188e38672619dc3933e91"},
		{"resilience-sweep", faulty, "2ff6e9c174e14d3820987ae6a45a8df4cf5fe3e15a7e5a3a04b7d017d1d21d66"},
	} {
		e, ok := Find(c.id)
		if !ok {
			t.Fatalf("experiment %s not registered", c.id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Options{Fault: c.fault}); err != nil {
			t.Fatalf("%s (fault %v): %v", c.id, c.fault != nil, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s (fault %v) full-mode output digest %s, want %s (%d bytes)",
				c.id, c.fault != nil, got, c.want, buf.Len())
		}
	}
}
