package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The multi-process smoke: this test binary re-execs ITSELF as halrun
// (main() runs when the env var is set), so one `go test ./cmd/halrun`
// spawns a leader and two workers as real OS processes talking over a
// unix socket mesh — the full out-of-process path, exactly as a user
// would run it, with no prebuilt binary needed.

const reexecEnv = "HALRUN_DIST_REEXEC"

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		main() // os.Args carry the halrun subcommand; main exits on error
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distProc is one spawned halrun process and its captured output.
type distProc struct {
	name string
	cmd  *exec.Cmd
	out  bytes.Buffer
	err  error
}

// spawnHalrun starts this test binary as `halrun <args...>`.
func spawnHalrun(t *testing.T, name string, args ...string) *distProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &distProc{name: name, cmd: exec.Command(exe, args...)}
	p.cmd.Env = append(os.Environ(), reexecEnv+"=1")
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	return p
}

// runDistProcs waits for every process with a deadline, returning after
// all exit (or killing the stragglers).
func runDistProcs(t *testing.T, timeout time.Duration, procs ...*distProc) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *distProc) {
			defer wg.Done()
			p.err = p.cmd.Wait()
		}(p)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		for _, p := range procs {
			p.cmd.Process.Kill()
		}
		wg.Wait()
		for _, p := range procs {
			t.Logf("--- %s output ---\n%s", p.name, p.out.String())
		}
		t.Fatalf("multi-process run did not finish within %v", timeout)
	}
}

// requireDistOK fails the test with every process's output if any exited
// non-zero, and writes outputs to HALRUN_SMOKE_LOG_DIR (if set) so CI can
// upload them as artifacts alongside any flight records.
func requireDistOK(t *testing.T, procs ...*distProc) {
	t.Helper()
	if dir := os.Getenv("HALRUN_SMOKE_LOG_DIR"); dir != "" {
		for _, p := range procs {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.log", t.Name(), p.name))
			if err := os.WriteFile(path, p.out.Bytes(), 0o644); err != nil {
				t.Logf("writing %s: %v", path, err)
			}
		}
	}
	failed := false
	for _, p := range procs {
		if p.err != nil {
			failed = true
			t.Errorf("%s exited with %v", p.name, p.err)
		}
	}
	if failed {
		for _, p := range procs {
			t.Logf("--- %s output ---\n%s", p.name, p.out.String())
		}
		t.FailNow()
	}
}

// flightArgs arms the per-process flight recorder when CI provides a
// directory to collect stall dumps from.
func flightArgs(t *testing.T, role string) []string {
	dir := os.Getenv("HALRUN_SMOKE_LOG_DIR")
	if dir == "" {
		return nil
	}
	return []string{"-flight-out", filepath.Join(dir, fmt.Sprintf("%s-%s.flight", t.Name(), role))}
}

// TestDistSmoke3ProcHopscotch runs the cross-process spawn/migrate/repair
// smoke over three real OS processes: every round creates a hopper on
// each of 6 nodes, migrates it into another process's span, and chases it
// with a request that only converges after forwarding-pointer repair.
func TestDistSmoke3ProcHopscotch(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "hal.sock")
	leader := spawnHalrun(t, "leader", append([]string{"dist", "-listen", sock,
		"-workers", "2", "-nodes", "6", "-app", "hopscotch", "-rounds", "3", "-stats"},
		flightArgs(t, "leader")...)...)
	w1 := spawnHalrun(t, "worker1", append([]string{"dist", "-join", sock}, flightArgs(t, "worker1")...)...)
	w2 := spawnHalrun(t, "worker2", append([]string{"dist", "-join", sock}, flightArgs(t, "worker2")...)...)
	runDistProcs(t, 2*time.Minute, leader, w1, w2)
	requireDistOK(t, leader, w1, w2)
	if !strings.Contains(leader.out.String(), "(verified)") {
		t.Fatalf("leader did not verify the result:\n%s", leader.out.String())
	}
}

// freeTCPAddr reserves and releases one loopback port.
func freeTCPAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// TestDistSmoke3ProcFibFaults runs the fib workload over three processes
// WITH fault injection: the plan cuts the socket links, their replay is
// the only recovery, and the result is still exact with nothing
// dead-lettered.
func TestDistSmoke3ProcFibFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fault run is not short")
	}
	sock := filepath.Join(t.TempDir(), "hal.sock")
	leader := spawnHalrun(t, "leader", append([]string{"dist", "-listen", sock,
		"-workers", "2", "-nodes", "6", "-app", "fib", "-n", "14",
		"-faults", "cut=0.05", "-stats"},
		flightArgs(t, "leader")...)...)
	w1 := spawnHalrun(t, "worker1", append([]string{"dist", "-join", sock}, flightArgs(t, "worker1")...)...)
	w2 := spawnHalrun(t, "worker2", append([]string{"dist", "-join", sock}, flightArgs(t, "worker2")...)...)
	runDistProcs(t, 3*time.Minute, leader, w1, w2)
	requireDistOK(t, leader, w1, w2)
	if !strings.Contains(leader.out.String(), "fib(14) = 377  (verified)") {
		t.Fatalf("leader did not verify fib(14):\n%s", leader.out.String())
	}
	if !strings.Contains(leader.out.String(), "retries=0 dedup=0 deadletters=0") {
		t.Fatalf("leader's recovery line shows work above the link:\n%s", leader.out.String())
	}
}

// TestDistSmokeTCP runs one hopscotch round over TCP loopback instead of
// unix sockets: same mesh, the other network family.
func TestDistSmokeTCP(t *testing.T) {
	// Workers need the leader's address up front, so :0 is no use; grab a
	// free port and release it for the leader to claim.
	addr, err := freeTCPAddr()
	if err != nil {
		t.Fatal(err)
	}
	leader := spawnHalrun(t, "leader", append([]string{"dist", "-listen", addr, "-net", "tcp",
		"-workers", "2", "-nodes", "6", "-app", "hopscotch", "-rounds", "1"},
		flightArgs(t, "leader")...)...)
	w1 := spawnHalrun(t, "worker1", "dist", "-join", addr, "-net", "tcp")
	w2 := spawnHalrun(t, "worker2", "dist", "-join", addr, "-net", "tcp")
	runDistProcs(t, 2*time.Minute, leader, w1, w2)
	requireDistOK(t, leader, w1, w2)
	if !strings.Contains(leader.out.String(), "(verified)") {
		t.Fatalf("leader did not verify the result:\n%s", leader.out.String())
	}
}
