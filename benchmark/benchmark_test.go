package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"hal/internal/names"
)

// small is every workload at 1/50 size with its checks on.
func small(t *testing.T) *env {
	return &env{seed: 7, scale: 50, outDir: t.TempDir()}
}

func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(w, small(t), 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted < 1 || r.failed != 0 {
				t.Fatalf("attempted %d, failed %d", r.attempted, r.failed)
			}
			for _, m := range endToEnd {
				if v := r.values[m.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", m.name, v)
				}
			}
		})
	}
}

// A check that expects the wrong value must count its round's operations
// as failed, on every workload.
func TestWrongExpectationFailsTheRound(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := small(t)
			e.tamper = true
			p, err := runPass(w, e, passOpts{minRounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if p.ops < 1 || p.failed != p.ops {
				t.Fatalf("failed %d of %d operations, want all", p.failed, p.ops)
			}
		})
	}
}

// Descriptors a kept machine never frees must show in heap_mb: the ring
// workloads create a group of actors a round, so a reading taken after
// more rounds is larger by at least those actors' descriptors.
func TestHeapShowsArenaGrowth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	heapAfter := func(rounds int) float64 {
		p, err := runPass(workloadByName("local-ring"), small(t), passOpts{minRounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.heapMB) != 1 || len(p.rounds) != rounds {
			t.Fatalf("%d heap readings over %d rounds, want 1 over %d", len(p.heapMB), len(p.rounds), rounds)
		}
		return p.heapMB[0]
	}
	const extra = 100
	early, late := heapAfter(2), heapAfter(2+extra)
	if grew, floor := late-early, extra*64*float64(unsafe.Sizeof(names.LD{}))/(1<<20); grew < floor {
		t.Errorf("heap_mb %.3f after 2 rounds, %.3f after %d: grew %.3f MB, want at least %.3f", early, late, 2+extra, grew, floor)
	}
}

// The two timing metrics rest on the fastest rounds of a window: rounds a
// slow spell of the host stretched move neither.
func TestSlowRoundsAreDiscarded(t *testing.T) {
	window := func(slow int) map[string]float64 {
		p := newPass()
		for i := 0; i < 24; i++ {
			sec, lat := 0.1, 10.0
			if i < slow {
				sec, lat = 0.15, 15
			}
			p.lat = append(p.lat, lat, lat, lat)
			p.rounds = append(p.rounds, roundRec{sec: sec, ops: 1000, latLo: 3 * i, latHi: 3*i + 3})
		}
		p.setupSec, p.heapMB = []float64{1}, []float64{1}
		return p.endToEnd(workloads[0]).values
	}
	quiet, noisy := window(0), window(18)
	for _, m := range []string{"ops_per_s", "lat_p50_us"} {
		if d := math.Abs(noisy[m]-quiet[m]) / quiet[m]; d > 0.001 {
			t.Errorf("%s: %v with 18 of 24 rounds slowed by half, %v with none", m, noisy[m], quiet[m])
		}
	}
	if all := window(24); all["ops_per_s"] > 0.7*quiet["ops_per_s"] || all["lat_p50_us"] != 15 {
		t.Errorf("a window slowed throughout reads %v ops/s, p50 %v us; want the slowdown to show", all["ops_per_s"], all["lat_p50_us"])
	}
}

// Each layer does its work where the catalogue says and none where it
// says not (README.md, "Which layer moves which metric").
func TestTracedSmall(t *testing.T) {
	e := small(t)
	e.spans = newSpanLog()
	rungs, err := runLadder(e)
	if err != nil {
		t.Fatal(err)
	}
	traced := func(name string) map[string]float64 {
		r, err := runTraced(workloadByName(name), e, rungs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("%s: %d operations failed", name, r.failed)
		}
		for _, m := range perLayer {
			if v, ok := r.values[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v)", name, m.name, v, ok)
			}
		}
		if len(r.values) != len(perLayer) {
			t.Errorf("%s: %d values for %d per-layer metrics", name, len(r.values), len(perLayer))
		}
		return r.values
	}
	if v := traced("barrier"); v["amnet.batched_pkt_share"] <= 0.4 || v["sock.frames_per_op"] != 0 {
		t.Errorf("barrier: batched share %v (want > 0.4), frames/op %v (want 0)", v["amnet.batched_pkt_share"], v["sock.frames_per_op"])
	}
	if v := traced("mem-ring"); v["amnet.batched_pkt_share"] >= 0.01 || v["sock.wire_b_per_op"] != 0 {
		t.Errorf("mem-ring: batched share %v (want < 0.01), wire B/op %v (want 0)", v["amnet.batched_pkt_share"], v["sock.wire_b_per_op"])
	}
	if v := traced("unix-ring"); v["sock.frames_per_op"] < 1 || v["core.dead_letters"] != 0 {
		t.Errorf("unix-ring: frames/op %v (want >= 1), dead letters %v", v["sock.frames_per_op"], v["core.dead_letters"])
	}
	if v := traced("nomad"); v["core.fir_per_kop"] <= 0 || v["core.steal_hits_per_kop"] != 0 {
		t.Errorf("nomad: FIRs/kop %v (want > 0), steal hits/kop %v (want 0)", v["core.fir_per_kop"], v["core.steal_hits_per_kop"])
	}
	if err := e.spans.write(e.outDir); err != nil {
		t.Fatal(err)
	}
	if self := selfTimes(e.spans.spans); self["core.Wait"] <= 0 || self["batch"] <= 0 {
		t.Errorf("span self times %v lack core.Wait or batch", self)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}, {-3, 1}, {250, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	unsorted := []float64{9, 1, 5, 3}
	if got := lowerQuartile(unsorted); got != 2.5 {
		t.Errorf("lowerQuartile = %v, want 2.5", got)
	}
	if got := median(unsorted); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if !reflect.DeepEqual(unsorted, []float64{9, 1, 5, 3}) {
		t.Errorf("estimators reordered their input: %v", unsorted)
	}
	if got := iqrPct([]float64{8, 10, 10, 12}); math.Abs(got-10) > 1e-12 {
		t.Errorf("iqrPct = %v, want 10", got)
	}
}

func TestDigest(t *testing.T) {
	var samples []float64
	for i := 1000; i > 0; i-- {
		samples = append(samples, float64(i))
	}
	pool := digest([]float64{-1}, samples, 4)
	if want := []float64{-1, 126, 376, 626, 876}; !reflect.DeepEqual(pool, want) {
		t.Errorf("digest = %v, want %v", pool, want)
	}
	if got := digest(nil, []float64{3, 1, 2}, 4); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("digest of a short round = %v, want it whole and sorted", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "launch", Start: 10, End: 30, Parent: 0},
		{Name: "wait", Start: 20, End: 70, Parent: 0}, // overlaps launch by 10
		{Name: "poll", Start: 40, End: 50, Parent: 2},
		{Name: "wait", Start: 80, End: 90, Parent: 0},
	}
	want := map[string]int64{"round": 30, "launch": 20, "wait": 50, "poll": 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var off *spanLog
	off.begin("ignored")
	off.end()
	l := newSpanLog()
	l.begin("a")
	l.begin("b")
	l.end()
	l.end()
	if l.spans[1].Parent != 0 || l.spans[0].Parent != -1 || l.spans[0].End < l.spans[1].End {
		t.Errorf("nesting not recorded: %+v", l.spans)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "nomad", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "nomad", "--seed", "3", "--seconds", "10", "--trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	got = normalizeArgs([]string{"-trace", "-w", "barrier"})
	if want := []string{"-trace", "-w", "barrier"}; !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}

// BENCHMARK.json and the catalogues in this package name the same
// workloads (less the ungated one) and metrics, with the same units,
// directions and bounds.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []entry                      `json:"end_to_end"`
		PerLayer  []entry                      `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []*workload
	for _, w := range workloads {
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the catalogue", len(doc.Workloads), len(gated))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, catalogue %q / %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != better || g.Bound != m.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
