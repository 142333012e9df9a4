package main

// metric names one reported number.  bound is the share of the parent's
// median an end-to-end metric may worsen by; per-layer metrics have none.
type metric struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}

// endToEnd is what a user of the runtime sees, on every workload.
var endToEnd = []metric{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.10},
	{"lat_p50_us", "us", false, 0.10},
	{"allocs_per_op", "count", false, 0.03},
	{"alloc_b_per_op", "B", false, 0.03},
	{"heap_mb", "MB", false, 0.10},
}

// workloads is the catalogue; README.md says which layer each one loads
// and which it leaves idle.
var workloads = []*workload{
	{
		name: "local-ring", op: "hop", minRounds: 24, traceRounds: 8,
		why: "64 actors, 8 tokens on one node: the generic local send and dispatch; the interconnect is idle",
		open: func(e *env) (rig, error) {
			return openRing(e, ringShape{nodes: 1, members: 64, tokens: 8, hops: 1000000})
		},
	},
	{
		name: "mem-ring", op: "hop", minRounds: 24, traceRounds: 8,
		why: "one token alternating between two in-memory nodes: every hop pays the ring push and the wake edge, unloaded",
		open: func(e *env) (rig, error) {
			return openRing(e, ringShape{nodes: 2, members: 64, tokens: 1, hops: 200000})
		},
	},
	{
		name: "unix-ring", op: "hop", minRounds: 24, traceRounds: 8,
		why: "16 tokens between two machines over a unix socket: framing, gob payloads and ack/retry do nearly all the work",
		open: func(e *env) (rig, error) {
			return openRing(e, ringShape{nodes: 2, wire: true, members: 16, tokens: 16, hops: 8000})
		},
	},
	{
		name: "barrier", op: "request", minRounds: 24, traceRounds: 8,
		why:  "32 workers request a remote barrier that answers all at once: join continuations and the one place batching engages",
		open: openBarrier,
	},
	{
		name: "fib-lb", op: "invocation", minRounds: 300, traceRounds: 40,
		why:     "fib(18) of NewAuto actors under load balancing on a fresh 4-node machine: creation, aliases, steals, the write side of names",
		ungated: "ten invocations of the same code spread 8 to 19 % on ops_per_s: idle nodes wait on 5 to 20 us timers and the host decides how long those take (README.md)",
		open:    openFib,
	},
	{
		name: "nomad", op: "ping", minRounds: 150, traceRounds: 24,
		why:  "closed-loop requests to actors that keep migrating on a fresh 4-node machine: stale caches, held messages, FIR repair",
		open: openNomad,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
