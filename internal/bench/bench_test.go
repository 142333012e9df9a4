package bench

import (
	"strings"
	"testing"
)

// The bench tests run each table at reduced size and assert the paper's
// SHAPES: who wins and roughly by how much.

func TestTable1Shape(t *testing.T) {
	res, err := Table1(Table1Config{N: 128, B: 8, Ps: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Cfg.Ps {
		// The paper's headline, holding the mapping fixed (cyclic):
		// local synchronization (pipelined) beats global.
		if res.CP[i] >= res.Seq[i] {
			t.Errorf("P=%d: CP %v not faster than Seq %v", p, res.CP[i], res.Seq[i])
		}
		if res.CP[i] >= res.Bcast[i] {
			t.Errorf("P=%d: CP %v not faster than Bcast %v", p, res.CP[i], res.Bcast[i])
		}
		// Flow control matters for the pipelined version.
		if res.CP[i] >= res.CPNoFC[i] {
			t.Errorf("P=%d: flow control did not help: %v vs %v", p, res.CP[i], res.CPNoFC[i])
		}
		// Cyclic mapping pipelines better than block mapping (BP keeps
		// the whole factorization chain on one node at a time).
		if res.CP[i] >= res.BP[i] {
			t.Errorf("P=%d: CP %v not faster than BP %v", p, res.CP[i], res.BP[i])
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("Print produced no table")
	}
	t.Logf("\n%s", sb.String())
}

// Tables 2 and 3 print host nanoseconds, and their shape tests do not
// read them past "something was measured": one host-time sample beside
// another package's tests says what the scheduler did, not what the
// kernel does.  The paper's contrasts are asserted where they hold on any
// host — on the model µs column and on what each primitive did, counted.
// Host time per primitive is `go run ./benchmark -trace`'s ladder.

func TestTable2Shape(t *testing.T) {
	res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.WallNS <= 0 {
			t.Errorf("%s: non-positive wall time", row.Name)
		}
	}
	// The alias path must be much cheaper than the full creation round
	// trip — the paper's 5.83 vs 20.83 µs contrast: the requester sends
	// one packet per creation and waits for none, where first use pays a
	// second packet and a reply.
	alias := byName["remote creation (alias, requester-visible)"]
	full := byName["remote creation + first use (round trip)"]
	if alias.VirtualUS*2 > full.VirtualUS {
		t.Errorf("alias creation (%v µs) not clearly cheaper than full round trip (%v µs)",
			alias.VirtualUS, full.VirtualUS)
	}
	if a, root := alias.Stats.Total, alias.Stats.PerNode[0]; a.CreatesRemote != 4097 || root.Net.Sent != a.CreatesRemote || a.Replies+a.JoinsRun != 0 {
		t.Errorf("alias path: %d creations, %d packets from the requester, %d replies, %d joins; want one packet each and nothing waited for",
			a.CreatesRemote, root.Net.Sent, a.Replies, a.JoinsRun)
	}
	if f, root := full.Stats.Total, full.Stats.PerNode[0]; f.CreatesRemote != 512 || root.Net.Sent != 2*f.CreatesRemote || f.Replies != f.CreatesRemote || f.JoinsRun != f.CreatesRemote {
		t.Errorf("round trip: %d creations, %d packets from the requester, %d replies, %d joins; want two packets and one awaited reply each",
			f.CreatesRemote, root.Net.Sent, f.Replies, f.JoinsRun)
	}
	// The locality check is far cheaper than any send.
	check := byName["locality check (name table hit)"]
	send := byName["local send (generic, enqueue)"]
	if check.VirtualUS*2 > send.VirtualUS {
		t.Errorf("locality check (%v µs) not clearly cheaper than a send (%v µs)", check.VirtualUS, send.VirtualUS)
	}
	// The fast path is a send that was never enqueued.
	fast := byName["local send (fast path, incl. dispatch)"]
	if fast.VirtualUS >= send.VirtualUS {
		t.Errorf("fast path (%v µs) not cheaper than the generic send (%v µs)", fast.VirtualUS, send.VirtualUS)
	}
	if f, s := fast.Stats.Total, send.Stats.Total; f.SendsFast != 20100 || f.SendsFastMiss != 0 || f.SendsLocal != 0 || s.SendsLocal != 20100 || s.SendsFast != 0 {
		t.Errorf("fast row: fast=%d miss=%d local=%d; generic row: local=%d fast=%d; want 20100 0 0 and 20100 0",
			f.SendsFast, f.SendsFastMiss, f.SendsLocal, s.SendsLocal, s.SendsFast)
	}
	var sb strings.Builder
	res.Print(&sb)
	t.Logf("\n%s", sb.String())
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.WallNS <= 0 {
			t.Errorf("%s: non-positive wall time", row.Name)
		}
	}
	fast := byName["locality check + static dispatch (SendFast)"]
	generic := byName["generic local send + dispatch (quiescent run)"]
	remote := byName["remote send + dispatch (pipelined)"]
	// The compiler fast path is much cheaper than the generic mechanism
	// (the point of § 6.3), which is cheaper than leaving the node.
	if fast.VirtualUS >= generic.VirtualUS || generic.VirtualUS >= remote.VirtualUS {
		t.Errorf("model costs not ordered: SendFast %v, generic %v, remote %v µs", fast.VirtualUS, generic.VirtualUS, remote.VirtualUS)
	}
	// What makes it cheaper: every fast send ran on the caller's stack —
	// delivered, never enqueued — while every generic one went through the
	// mail queue and the dispatcher.
	if f := fast.Stats.Total; f.SendsFast != 50100 || f.SendsFastMiss != 0 || f.SendsLocal != 0 || f.Delivered < f.SendsFast {
		t.Errorf("SendFast row: fast=%d miss=%d enqueued=%d delivered=%d; want 50100 0 0 and all delivered",
			f.SendsFast, f.SendsFastMiss, f.SendsLocal, f.Delivered)
	}
	if g := generic.Stats.Total; g.SendsLocal != 50000 || g.SendsFast != 0 || g.Delivered < g.SendsLocal {
		t.Errorf("generic row: enqueued=%d fast=%d delivered=%d; want 50000 0 and all delivered", g.SendsLocal, g.SendsFast, g.Delivered)
	}
	var sb strings.Builder
	res.Print(&sb)
	t.Logf("\n%s", sb.String())
}

func TestTable4Shape(t *testing.T) {
	res, err := Table4(Table4Config{N: 14, Ps: []int{1, 4}, GrainUS: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Unbalanced times are flat in P; dynamic balancing wins big at P=4.
	if res.Balanced[1] >= res.Off[1] {
		t.Errorf("P=4: dynamic LB %v not faster than LB off %v", res.Balanced[1], res.Off[1])
	}
	if res.Balanced[1] > res.Off[1]/2 {
		t.Errorf("P=4: dynamic LB speedup below 2x: %v vs %v", res.Balanced[1], res.Off[1])
	}
	var sb strings.Builder
	res.Print(&sb)
	t.Logf("\n%s", sb.String())
}

func TestTable5Shape(t *testing.T) {
	res, err := Table5(Table5Config{N: 64, Grids: []int{1, 2, 4}, FlopUS: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Bigger grids run faster, MFLOPS grow.
	for i := 1; i < len(res.Virtual); i++ {
		if res.Virtual[i] >= res.Virtual[i-1] {
			t.Errorf("grid %d not faster than grid %d: %v vs %v",
				res.Cfg.Grids[i], res.Cfg.Grids[i-1], res.Virtual[i], res.Virtual[i-1])
		}
		if res.MFlops[i] <= res.MFlops[i-1] {
			t.Errorf("MFLOPS not increasing at grid %d", res.Cfg.Grids[i])
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	t.Logf("\n%s", sb.String())
}

func TestAblationShapes(t *testing.T) {
	ldc, err := AblateLDCache()
	if err != nil {
		t.Fatal(err)
	}
	if ldc.Baseline >= ldc.Ablated {
		t.Errorf("LD caching did not pay: with=%v without=%v", ldc.Baseline, ldc.Ablated)
	}
	fir, err := AblateFIR()
	if err != nil {
		t.Fatal(err)
	}
	if fir.Baseline >= fir.Ablated {
		t.Errorf("FIR did not beat naive forwarding: with=%v without=%v", fir.Baseline, fir.Ablated)
	}
	fp, err := AblateFastPath()
	if err != nil {
		t.Fatal(err)
	}
	if fp.Baseline >= fp.Ablated {
		t.Errorf("stack scheduling did not pay: with=%v without=%v", fp.Baseline, fp.Ablated)
	}
	var sb strings.Builder
	suite := AblationSuite{Results: []AblationResult{ldc, fir, fp}}
	suite.Print(&sb)
	t.Logf("\n%s", sb.String())
}

func TestIrregularShape(t *testing.T) {
	res, err := Irregular(IrregularConfig{Eps: 1e-6, Ps: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > 1e-5 {
		t.Errorf("integration error %g", res.MaxErr)
	}
	// The irregular tree defeats the owner-computes decomposition;
	// dynamic balancing must beat it clearly.
	if res.Balanced[0] >= res.Partitioned[0] {
		t.Errorf("dynamic %v not faster than partitioned %v", res.Balanced[0], res.Partitioned[0])
	}
	var sb strings.Builder
	res.Print(&sb)
	t.Logf("\n%s", sb.String())
}
