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
//	-faults default               the standard plan (a 7% chance per packet
//	                              of cutting its link, 2ms pause windows)
//	-faults cut=0.1,pause-every=1ms a custom plan from comma-separated k=v pairs
//	-fault-seed 7                 pin the fault PRNG seed for reproduction
//
// With faults on, the run prints a recovery summary.  A cut link replays
// what it held, so a plan slows a run down but never changes its result.

// faultFlags registers the flags on fs and returns an apply function to
// call after parsing; it installs the plan (if any) into cfg and reports
// whether faults are on.
func faultFlags(fs *flag.FlagSet) func(cfg *hal.Config) (bool, error) {
	spec := fs.String("faults", "", `inject network faults: "default", or cut=P,pause-every=D,pause-dur=D`)
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
// injection; "default" (or "on") selects the standard plan; anything else
// is a comma-separated k=v list.
func parseFaultSpec(spec string) (*hal.FaultPlan, error) {
	switch spec {
	case "":
		return nil, nil
	case "default", "on":
		return &hal.FaultPlan{Cut: 0.07, PauseEvery: 2 * time.Millisecond}, nil
	}
	plan := &hal.FaultPlan{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad fault spec element %q (want k=v)", kv)
		}
		switch k {
		case "cut":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault probability %q: %v", kv, err)
			}
			plan.Cut = p
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

// reportRecovery prints the fault plan's one-line summary for a faulty
// run that got as far as running the machine (wall > 0), failed or not,
// so the counters explaining a failure aren't lost.  The format is
// MachineStats.FaultSummary's, the same on both networks.
func reportRecovery(faulty bool, s hal.MachineStats, wall time.Duration) {
	if faulty && wall > 0 {
		fmt.Println("recovery: " + s.FaultSummary())
	}
}
