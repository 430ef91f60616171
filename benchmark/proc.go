package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running dlogd process under the benchmark's control.
type daemon struct {
	cmd   *exec.Cmd
	url   string    // http://127.0.0.1:port
	start time.Time // when exec returned, the zero of recover_s
	// logTail keeps the last stderr lines for failure reports.
	mu      sync.Mutex
	logTail []string
	drained chan struct{} // closed when stderr hits EOF
}

// live is every daemon spawned and not yet reaped, so a signal handler
// can take them all down.
var live = struct {
	sync.Mutex
	set map[*daemon]struct{}
}{set: map[*daemon]struct{}{}}

// killAll kills every live daemon (signal path; the normal paths kill
// their own).
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.cmd.Process.Kill()
	}
}

func (d *daemon) reaped() {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// buildDlogd compiles cmd/dlogd from the repository root into binDir
// and returns the binary path. Build time is never part of a metric.
func buildDlogd(root, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "dlogd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dlogd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dlogd: %v\n%s", err, out)
	}
	return bin, nil
}

// spawn starts dlogd on an ephemeral loopback port and returns once
// the process has printed its listen address. dlogd recovers its data
// directory before it listens, so on a restart the returned daemon has
// already replayed its log; d.start is the moment to time that from.
func spawn(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Should this process die without running its deferred kills, the
	// kernel takes the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	d.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	live.set[d] = struct{}{}
	live.Unlock()
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logTail = append(d.logTail, line)
			if len(d.logTail) > 20 {
				d.logTail = d.logTail[1:]
			}
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "dlogd: listening on "); ok && !sent {
				sent = true
				addr <- rest
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			_ = cmd.Wait()
			d.reaped()
			return nil, fmt.Errorf("dlogd exited before listening:\n%s", d.tail())
		}
		d.url = "http://" + a
		return d, nil
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("dlogd did not listen within 60s")
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logTail, "\n")
}

// kill sends SIGKILL and reaps the process: the crash the recovery
// metrics start from. Safe on an already-dead daemon.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.drained
	_ = d.cmd.Wait()
	d.reaped()
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux configuration Go runs on.
const clockTick = 100

// cpuSeconds reads the process's cumulative user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime is field 14 → f[11], stime f[12].
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad utime/stime in /proc stat line")
	}
	return float64(ut+st) / clockTick, nil
}

// rssPeakMB reads VmHWM, the process's peak resident set, in MiB.
func (d *daemon) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

func parseVmHWM(b []byte) (float64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// waitReady polls GET /readyz until it answers 200. A leader answers
// at once; a follower answers 503 until it has caught up.
func waitReady(ctx context.Context, c *client, base string) error {
	for {
		code, _, err := c.do(ctx, "GET", base+"/readyz", nil)
		if err == nil && code == 200 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("readyz: %w (last: code %d, err %v)", ctx.Err(), code, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
