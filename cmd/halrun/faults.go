package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hal"
)

// Fault-injection flags, shared by every subcommand:
//
//	-faults default            the standard lossy plan (1% drop, 1% dup,
//	                           5% delay, 2ms pause windows)
//	-faults drop=0.05,dup=0.01 a custom plan from comma-separated k=v pairs
//	-fault-seed 7              pin the fault PRNG seed for reproduction
//
// With faults on, the run prints a recovery summary and exits non-zero if
// the kernel had to abandon control packets (retry budget exhausted).

// faultFlags registers the flags on fs and returns an apply function to
// call after parsing; it installs the plan (if any) into cfg and reports
// whether faults are on.
func faultFlags(fs *flag.FlagSet) func(cfg *hal.Config) (bool, error) {
	spec := fs.String("faults", "", `inject network faults: "default", or drop=P,dup=P,delay=P,pause-every=D,pause-dur=D`)
	seed := fs.Int64("fault-seed", 0, "fault injection seed (0 = derive from the machine seed)")
	return func(cfg *hal.Config) (bool, error) {
		plan, err := parseFaultSpec(*spec)
		if err != nil {
			return false, err
		}
		if plan == nil {
			if *seed != 0 {
				return false, fmt.Errorf("-fault-seed without -faults")
			}
			return false, nil
		}
		plan.Seed = *seed
		cfg.Faults = plan
		return true, nil
	}
}

// parseFaultSpec turns the -faults argument into a plan.  Empty means no
// injection; "default" (or "on") selects the standard lossy plan; anything
// else is a comma-separated k=v list.
func parseFaultSpec(spec string) (*hal.FaultPlan, error) {
	switch spec {
	case "":
		return nil, nil
	case "default", "on":
		return &hal.FaultPlan{Drop: 0.01, Dup: 0.01, Delay: 0.05, PauseEvery: 2 * time.Millisecond}, nil
	}
	plan := &hal.FaultPlan{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad fault spec element %q (want k=v)", kv)
		}
		switch k {
		case "drop", "dup", "delay":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault probability %q: %v", kv, err)
			}
			switch k {
			case "drop":
				plan.Drop = p
			case "dup":
				plan.Dup = p
			case "delay":
				plan.Delay = p
			}
		case "pause-every", "pause-dur":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("bad fault duration %q: %v", kv, err)
			}
			if k == "pause-every" {
				plan.PauseEvery = d
			} else {
				plan.PauseDur = d
			}
		default:
			return nil, fmt.Errorf("unknown fault spec key %q", k)
		}
	}
	return plan, nil
}

// reportRecoveryOnError prints the recovery summary for a faulty run that
// failed after the machine ran (wall > 0 — e.g. the result itself was
// dead-lettered), so the counters explaining the failure aren't lost.
// The caller returns its own error; this one's is redundant with it.
func reportRecoveryOnError(faulty bool, s hal.MachineStats, wall time.Duration) {
	if faulty && wall > 0 {
		_ = reportRecovery(s)
	}
}

// reportRecovery prints the fault/recovery summary and returns an error —
// failing the run with a non-zero exit — when the kernel exhausted a retry
// budget and had to dead-letter control packets.  On a multi-process
// machine the plan cut the socket links instead, and the summary adds
// what the links' replay did about it.
func reportRecovery(s hal.MachineStats) error {
	t, w := s.Total, s.Wire
	fmt.Printf("recovery: dropped=%d duplicated=%d delayed=%d pauses=%d dedup=%d retries=%d exhausted=%d deadletters=%d",
		t.Dropped, t.Duplicated, t.Delayed, t.Net.Pauses,
		t.DupsFiltered, t.Retries, t.RetryExhausted, t.DeadLetters)
	if w.WireSent+w.CtlSent > 0 {
		fmt.Printf(" cuts=%d redials=%d replayed=%d dupframes=%d", w.FaultCuts, w.Redials, w.Replayed, w.DupFrames)
	}
	fmt.Println()
	if t.RetryExhausted > 0 {
		return fmt.Errorf("control-plane retry budget exhausted: %d packet(s) abandoned as dead letters; the result is incomplete (re-run with a lighter fault plan or a larger retry budget)",
			t.RetryExhausted)
	}
	return nil
}
