package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"montblanc/internal/network"
)

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"mtbf_seconds": 100, "mtfb_seconds": 5}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

func TestParseSpecHostileInputs(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"nan mtbf", `{"mtbf_seconds": "NaN"}`, "decoding"},
		{"negative mtbf", `{"mtbf_seconds": -3600}`, "mtbf_seconds"},
		{"negative horizon", `{"horizon_seconds": -1}`, "horizon_seconds"},
		{"negative downtime", `{"downtime_seconds": -0.5}`, "downtime_seconds"},
		{"zero checkpoint interval", `{"checkpoint_interval_seconds": 0.0}`, ""},
		{"negative checkpoint interval", `{"checkpoint_interval_seconds": -30}`, "checkpoint_interval_seconds"},
		{"negative event node", `{"events": [{"node": -1, "time": 10}]}`, "negative node"},
		{"negative event time", `{"events": [{"node": 0, "time": -10}]}`, "events[0].time"},
		{"negative event downtime", `{"events": [{"node": 0, "time": 10, "downtime": -1}]}`, "events[0].downtime"},
		{"empty link name", `{"links": [{"link": "  ", "start": 0, "end": 1}]}`, "empty link name"},
		{"inverted link window", `{"links": [{"link": "node0->sw", "start": 5, "end": 5}]}`, "links[0]"},
		{"speedup factor", `{"links": [{"link": "node0->sw", "start": 0, "end": 1, "bandwidth_factor": 0.5}]}`, "links[0]"},
		{"negative extra latency", `{"links": [{"link": "node0->sw", "start": 0, "end": 1, "extra_latency_seconds": -1e-6}]}`, "links[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want ok, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestValidateRejectsNaNCheckpointInterval(t *testing.T) {
	s := &Spec{CheckpointIntervalSeconds: math.NaN()}
	if err := s.Validate(); err == nil {
		t.Fatal("NaN checkpoint interval accepted")
	}
	s = &Spec{MTBFSeconds: math.Inf(1)}
	if err := s.Validate(); err == nil {
		t.Fatal("infinite MTBF accepted")
	}
}

func TestResolveExplicitEvents(t *testing.T) {
	s := &Spec{
		DowntimeSeconds: 20,
		Events: []Event{
			{Node: 2, Time: 100},
			{Node: 0, Time: 50, Downtime: 5},
		},
	}
	r, err := s.Resolve(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outages) != 2 {
		t.Fatalf("want 2 outages, got %d", len(r.Outages))
	}
	// Sorted by start time.
	if r.Outages[0].Node != 0 || r.Outages[0].Start != 50 || r.Outages[0].End != 55 {
		t.Fatalf("first outage wrong: %+v", r.Outages[0])
	}
	if r.Outages[1].Node != 2 || r.Outages[1].Start != 100 || r.Outages[1].End != 120 {
		t.Fatalf("second outage wrong: %+v", r.Outages[1])
	}
	if got := r.CrashesBefore(60); got != 1 {
		t.Fatalf("CrashesBefore(60) = %d, want 1", got)
	}
	if got := r.NodeOutages(2); len(got) != 1 || got[0].Start != 100 {
		t.Fatalf("NodeOutages(2) = %+v", got)
	}
	if got := r.NodeOutages(3); got != nil {
		t.Fatalf("NodeOutages(3) = %+v, want none", got)
	}
}

func TestResolveEventOutOfRange(t *testing.T) {
	s := &Spec{Events: []Event{{Node: 4, Time: 10}}}
	if _, err := s.Resolve(4, 0); err == nil || !strings.Contains(err.Error(), "names node 4") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}

func TestResolveBadNodesAndHint(t *testing.T) {
	s := &Spec{}
	if _, err := s.Resolve(0, 0); err == nil {
		t.Fatal("resolving against 0 nodes accepted")
	}
	if _, err := s.Resolve(4, math.NaN()); err == nil {
		t.Fatal("NaN horizon hint accepted")
	}
	// MTBF set but no horizon anywhere.
	s = &Spec{MTBFSeconds: 3600}
	if _, err := s.Resolve(4, 0); err == nil || !strings.Contains(err.Error(), "no horizon") {
		t.Fatalf("want no-horizon error, got %v", err)
	}
}

func TestResolveDeterministic(t *testing.T) {
	s := &Spec{Seed: 7, MTBFSeconds: 1000, HorizonSeconds: 10000, DowntimeSeconds: 30}
	a, err := s.Resolve(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Resolve(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Outages, b.Outages) {
		t.Fatal("same spec resolved to different schedules")
	}
	if len(a.Outages) == 0 {
		t.Fatal("expected some generated crashes over 10 MTBFs x 8 nodes")
	}
	for _, o := range a.Outages {
		if o.End != o.Start+30 {
			t.Fatalf("outage [%v, %v), want downtime 30", o.Start, o.End)
		}
		if o.Start < 0 || o.Start >= 10000 {
			t.Fatalf("outage start %v outside horizon", o.Start)
		}
	}
}

func TestResolveNodeStreamsInvariantInClusterSize(t *testing.T) {
	s := &Spec{Seed: 42, MTBFSeconds: 500, HorizonSeconds: 5000}
	small, err := s.Resolve(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.Resolve(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		if !reflect.DeepEqual(small.NodeOutages(node), big.NodeOutages(node)) {
			t.Fatalf("node %d crash stream changed with cluster size", node)
		}
	}
}

func TestResolveHorizonHint(t *testing.T) {
	s := &Spec{Seed: 1, MTBFSeconds: 200}
	r, err := s.Resolve(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Horizon != 1000 {
		t.Fatalf("horizon = %v, want hint 1000", r.Horizon)
	}
	// Spec horizon wins over the hint.
	s.HorizonSeconds = 400
	r, err = s.Resolve(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Horizon != 400 {
		t.Fatalf("horizon = %v, want spec 400", r.Horizon)
	}
}

func TestResolveDensityGuard(t *testing.T) {
	s := &Spec{MTBFSeconds: 1e-3, HorizonSeconds: 1e6}
	if _, err := s.Resolve(64, 0); err == nil || !strings.Contains(err.Error(), "too dense") {
		t.Fatalf("want density error, got %v", err)
	}
}

func TestApplyLinkFaults(t *testing.T) {
	s := &Spec{Links: []LinkFault{
		{Link: "node0->sw", Start: 10, End: 20, BandwidthFactor: 4},
	}}
	r, err := s.Resolve(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := network.Star(4)
	if err := r.Apply(net); err != nil {
		t.Fatal(err)
	}
	// Unknown link name must fail.
	bad := &Spec{Links: []LinkFault{{Link: "no-such-link", Start: 0, End: 1}}}
	rb, err := bad.Resolve(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Apply(net); err == nil || !strings.Contains(err.Error(), "no-such-link") {
		t.Fatalf("want unknown-link error, got %v", err)
	}
}

func TestDowntimeDefaults(t *testing.T) {
	s := &Spec{Events: []Event{{Node: 0, Time: 10}}}
	r, err := s.Resolve(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Outages[0].End - r.Outages[0].Start; got != DefaultDowntime {
		t.Fatalf("default downtime = %v, want %v", got, DefaultDowntime)
	}
}

func TestYoungInterval(t *testing.T) {
	got, err := YoungInterval(60, 3600)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * 60 * 3600)
	if got != want {
		t.Fatalf("YoungInterval = %v, want %v", got, want)
	}
}

func TestDalyInterval(t *testing.T) {
	c, m := 60.0, 3600.0
	got, err := DalyInterval(c, m)
	if err != nil {
		t.Fatal(err)
	}
	x := c / (2 * m)
	want := math.Sqrt(2*c*m)*(1+math.Sqrt(x)/3+x/9) - c
	if got != want {
		t.Fatalf("DalyInterval = %v, want %v", got, want)
	}
	// Daly is a refinement of Young: shorter by roughly C for small C/M.
	young, _ := YoungInterval(c, m)
	if got >= young {
		t.Fatalf("Daly %v should be below Young %v for small C/M", got, young)
	}
	// Degenerate regime: checkpoints cost more than the machine stays up.
	got, err = DalyInterval(100, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Fatalf("degenerate Daly = %v, want MTBF 40", got)
	}
}

func TestIntervalHelpersHostileInputs(t *testing.T) {
	bad := []struct{ c, m float64 }{
		{math.NaN(), 100}, {100, math.NaN()},
		{math.Inf(1), 100}, {100, math.Inf(1)},
		{0, 100}, {100, 0}, {-1, 100}, {100, -1},
	}
	for _, b := range bad {
		if _, err := YoungInterval(b.c, b.m); err == nil {
			t.Fatalf("YoungInterval(%v, %v) accepted", b.c, b.m)
		}
		if _, err := DalyInterval(b.c, b.m); err == nil {
			t.Fatalf("DalyInterval(%v, %v) accepted", b.c, b.m)
		}
	}
}

func TestLoadSpecFileMissing(t *testing.T) {
	if _, err := LoadSpecFile("/nonexistent/fault.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
