package main

import (
	"runtime"
)

// perLayer is every per-layer metric a traced run reports (ungated).
// README.md says which end-to-end metric, on which workload, each should
// move.  Rungs come from ladder.go; counters from Machine.Stats and
// TransportStats of the traced rounds; run.* from comparing passes.
var perLayer = []metric{
	{name: "names.arena_get_ns", unit: "ns"},
	{name: "names.table_lookup_ns", unit: "ns"},
	{name: "names.arena_alloc_free_ns", unit: "ns"},
	{name: "names.arena_grow_ns", unit: "ns"},
	{name: "names.table_bind_unbind_ns", unit: "ns"},
	{name: "sched.heap_push_pop_ns", unit: "ns"},
	{name: "sched.deque_push_pop_ns", unit: "ns"},
	{name: "slotmap.insert_delete_ns", unit: "ns"},
	{name: "amnet.send_poll_ns", unit: "ns"},
	{name: "amnet.wake_pingpong_ns", unit: "ns"},
	{name: "amnet.batch32_send_poll_ns", unit: "ns"},
	{name: "amnet.sendnow_poll_ns", unit: "ns"},
	{name: "amnet.stream_full_ns", unit: "ns"},
	{name: "amnet.bulk_ns_per_word", unit: "ns"},
	{name: "amnet.flush_occ_p50", unit: "count", higher: true},
	{name: "amnet.batched_pkt_share", unit: "ratio", higher: true},
	{name: "amnet.send_stalls_per_kop", unit: "count"},
	{name: "sock.pkt_rtt_us", unit: "us"},
	{name: "sock.pkt_stream_ns", unit: "ns"},
	{name: "sock.wire_b_per_pkt", unit: "B"},
	{name: "sock.handshake_ms", unit: "ms"},
	{name: "sock.wire_b_per_op", unit: "B"},
	{name: "sock.frames_per_op", unit: "count"},
	{name: "core.local_send_ns", unit: "ns"},
	{name: "core.local_send_dispatch_ns", unit: "ns"},
	{name: "core.sendfast_ns", unit: "ns"},
	{name: "core.remote_send_dispatch_ns", unit: "ns"},
	{name: "core.request_reply_ns", unit: "ns"},
	{name: "core.local_create_ns", unit: "ns"},
	{name: "core.remote_create_alias_ns", unit: "ns"},
	{name: "core.launch_wait_us", unit: "us"},
	{name: "core.newmachine_ms", unit: "ms"},
	{name: "core.migrate_us", unit: "us"},
	{name: "core.fir_repair_p50_us", unit: "us"},
	{name: "core.fir_per_kop", unit: "count"},
	{name: "core.held_per_kop", unit: "count"},
	{name: "core.cache_updates_per_kop", unit: "count"},
	{name: "core.sends_routed_per_kop", unit: "count"},
	{name: "core.steal_hits_per_kop", unit: "count", higher: true},
	{name: "core.steal_misses_per_kop", unit: "count"},
	{name: "core.steal_wait_p50_us", unit: "us"},
	{name: "core.pace_stalls_per_kop", unit: "count"},
	{name: "core.idle_parks_per_kop", unit: "count"},
	{name: "core.retries_per_kop", unit: "count"},
	{name: "core.dups_filtered_per_kop", unit: "count"},
	{name: "core.dead_letters", unit: "count"},
	{name: "core.virt_us_per_op", unit: "us"},
	{name: "run.lat_p90_us", unit: "us"},
	{name: "run.lat_p99_us", unit: "us"},
	{name: "run.cpu_us_per_op", unit: "us"},
	{name: "run.slept_share_pct", unit: "%"},
	{name: "run.window_ops_per_s", unit: "1/s", higher: true},
	{name: "run.round_iqr_pct", unit: "%"},
	{name: "run.gc_on_ops_ratio", unit: "ratio", higher: true},
	{name: "run.gmp2_ops_ratio", unit: "ratio", higher: true},
	{name: "run.trace_overhead_pct", unit: "%"},
	{name: "run.ladder_residual_pct", unit: "%"},
}

// traceEvents is Config.TraceBuffer during the traced rounds.
const traceEvents = 4096

// runTraced produces one workload's per-layer metrics from the ladder and
// four short passes of rounds rounds each: untraced (the reference
// the others are compared with), traced (kernel event rings on, harness
// spans recorded, counters read), collector on, and two Ps.  No pass has
// warm rounds, so the counters cover exactly the rounds that ran.
func runTraced(w *workload, e *env, rungs map[string]float64, rounds int) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	quiet := *e
	quiet.spans = nil
	o := passOpts{minRounds: rounds}

	ref, err := runPass(w, &quiet, o)
	if err != nil {
		return nil, err
	}
	traced := *e
	traced.traceBuf = traceEvents
	e.spans.begin(w.name)
	tr, err := runPass(w, &traced, o)
	e.spans.end()
	if err != nil {
		return nil, err
	}
	gcOpts := o
	gcOpts.gcOn = true
	gc, err := runPass(w, &quiet, gcOpts)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	mp, err := runPass(w, &quiet, o)
	if err != nil {
		return nil, err
	}

	c := tr.counters
	lat := ref.latencies(ref.rounds)
	// Over every round of the reference pass, slow ones included: what the
	// kept rounds leave out.
	var sec, cpuSec float64
	for _, r := range ref.rounds {
		sec += r.sec
		cpuSec += r.cpuUS * r.ops / 1e6
	}
	perKop := func(n uint64) float64 { return float64(n) / float64(c.ops) * 1000 }
	v := map[string]float64{
		"amnet.flush_occ_p50":        c.flushOcc.Quantile(0.5),
		"amnet.batched_pkt_share":    float64(c.batchedPkts) / float64(max(c.netSent, 1)),
		"amnet.send_stalls_per_kop":  perKop(c.netStalls),
		"sock.wire_b_per_op":         float64(c.wireBytes) / float64(c.ops),
		"sock.frames_per_op":         float64(c.wireFrames) / float64(c.ops),
		"core.fir_repair_p50_us":     c.firRepair.Quantile(0.5),
		"core.fir_per_kop":           perKop(c.firSent),
		"core.held_per_kop":          perKop(c.held),
		"core.cache_updates_per_kop": perKop(c.cacheUpdates),
		"core.sends_routed_per_kop":  perKop(c.sendsRouted),
		"core.steal_hits_per_kop":    perKop(c.stealHits),
		"core.steal_misses_per_kop":  perKop(c.stealMisses),
		"core.steal_wait_p50_us":     c.stealWait.Quantile(0.5),
		"core.pace_stalls_per_kop":   perKop(c.paceStalls),
		"core.idle_parks_per_kop":    perKop(c.idle),
		"core.retries_per_kop":       perKop(c.retries),
		"core.dups_filtered_per_kop": perKop(c.dupsFiltered),
		"core.dead_letters":          float64(c.deadLetters),
		"core.virt_us_per_op":        tr.virtUS / float64(tr.ops),
		"run.lat_p90_us":             percentile(lat, 90),
		"run.lat_p99_us":             percentile(lat, 99),
		"run.cpu_us_per_op":          median(ref.column(func(r *roundRec) float64 { return r.cpuUS })),
		"run.slept_share_pct":        (1 - cpuSec/sec) * 100,
		"run.window_ops_per_s":       float64(ref.ops) / sec,
		"run.round_iqr_pct":          iqrPct(ref.roundSec()),
		"run.gc_on_ops_ratio":        gc.opsPerSec() / ref.opsPerSec(),
		"run.gmp2_ops_ratio":         mp.opsPerSec() / ref.opsPerSec(),
		"run.trace_overhead_pct":     (1 - tr.opsPerSec()/ref.opsPerSec()) * 100,
		"run.ladder_residual_pct":    ladderResidualPct(w.name, rungs, 1e9/ref.opsPerSec()),
	}
	for name, ns := range rungs {
		v[name] = ns
	}
	return &report{
		workload:  w,
		attempted: ref.ops + tr.ops + gc.ops + mp.ops,
		failed:    ref.failed + tr.failed + gc.failed + mp.failed,
		roundSec:  sortedCopy(ref.roundSec()),
		values:    v,
	}, nil
}

// ladderResidualPct is the share of an end-to-end hop the rungs measured
// in isolation do not account for: 1 − Σ rungs ÷ hop.  It is defined for
// the two workloads whose operation is one send and dispatch.  A local
// hop is the bare self-send chain; what is left over is what the ring
// adds to it (64 actors' footprint, eight tokens in the ready heap, two
// boxed arguments).  A remote hop is the pipelined remote send and
// dispatch plus the wake edge (the ping-pong less the send and poll it
// shares with the pipelined rung); what is left over is parking and
// publishing an idle node.  Elsewhere it reads 0.
func ladderResidualPct(workload string, rungs map[string]float64, hopNS float64) float64 {
	var sum float64
	switch workload {
	case "local-ring":
		sum = rungs["core.local_send_dispatch_ns"]
	case "mem-ring":
		sum = rungs["core.remote_send_dispatch_ns"] + rungs["amnet.wake_pingpong_ns"] - rungs["amnet.send_poll_ns"]
	default:
		return 0
	}
	return (1 - sum/hopNS) * 100
}
