package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

// daemonConfig is the ttkvd configuration a run serves under, parsed from
// --daemon-flags. The ttkvd process receives the flags themselves; the
// traced run's in-process assembly is built from this parse, so both
// halves of a traced run serve under the same settings.
type daemonConfig struct {
	fsync          ttkv.FsyncPolicy
	fsyncEvery     time.Duration
	window         time.Duration
	maxSkew        time.Duration
	reclusterEvery time.Duration
	advance        bool
	repair         ttkvwire.RepairConfig
}

// requiredDaemonFlags are the flags --daemon-flags accepts, and must set:
// their ttkvd defaults are written only in ttkvd's main package, so the
// harness copies none of them.
var requiredDaemonFlags = []string{
	"fsync", "fsync-interval", "window", "max-future-skew", "recluster-advance",
	"recluster-interval", "repair-workers", "repair-max-active", "repair-max-jobs",
}

// parseDaemonFlags parses args the way ttkvd does. A flag the in-process
// assembly does not reproduce is an error.
func parseDaemonFlags(args []string) (daemonConfig, error) {
	var c daemonConfig
	fs := flag.NewFlagSet("daemon-flags", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fsync := fs.String("fsync", "", "")
	fs.DurationVar(&c.fsyncEvery, "fsync-interval", 0, "")
	fs.DurationVar(&c.window, "window", 0, "")
	fs.DurationVar(&c.maxSkew, "max-future-skew", 0, "")
	fs.DurationVar(&c.reclusterEvery, "recluster-interval", 0, "")
	fs.BoolVar(&c.advance, "recluster-advance", false, "")
	fs.IntVar(&c.repair.Workers, "repair-workers", 0, "")
	fs.IntVar(&c.repair.MaxActive, "repair-max-active", 0, "")
	fs.IntVar(&c.repair.MaxJobs, "repair-max-jobs", 0, "")
	if err := fs.Parse(args); err != nil {
		return c, fmt.Errorf("--daemon-flags: %w (accepted: -%s)", err, strings.Join(requiredDaemonFlags, ", -"))
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("--daemon-flags: unexpected argument %q", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range requiredDaemonFlags {
		if !set[name] {
			return c, fmt.Errorf("--daemon-flags must set -%s", name)
		}
	}
	var err error
	if c.fsync, err = ttkv.ParseFsyncPolicy(*fsync); err != nil {
		return c, fmt.Errorf("--daemon-flags: %w", err)
	}
	if c.fsyncEvery <= 0 || c.reclusterEvery <= 0 {
		return c, fmt.Errorf("--daemon-flags: -fsync-interval and -recluster-interval must be positive (the workloads read live analytics)")
	}
	return c, nil
}

// daemonProcs is the GOMAXPROCS the ttkvd process is started with: the
// generator's own, so the fingerprint reports the daemon's actual value.
func daemonProcs() int { return runtime.GOMAXPROCS(0) }

// target is the daemon under test as a workload drives it: ttkvd in its
// own process, or (in the traced run) assembled in-process.
type target interface {
	// client is the benchmark's one connection to the daemon.
	client() *ttkvwire.Client
	// setup is the time from launch until the first PING answer: segment
	// replay, analytics backfill and the first recluster.
	setup() time.Duration
	// procStats reports the daemon's peak resident set and CPU time.
	procStats() (peakRSS int64, cpu time.Duration, err error)
	// stop shuts the daemon down, flushing its log.
	stop() error
}

// start copies the pristine log directory (none: an empty log) into the
// run's scratch space and launches a daemon on the copy: the ttkvd
// binary, or the in-process assembly when the run is traced. The copy is
// not part of the daemon's setup time.
func (e *env) start(pristine string) (target, string, error) {
	dir := filepath.Join(e.work, "log")
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	if pristine != "" {
		if err := copyDir(pristine, dir); err != nil {
			return nil, "", err
		}
	}
	var t target
	var err error
	if e.tr != nil {
		t, err = startInproc(e, dir, pristine)
	} else {
		t, err = startDaemon(e.bin, dir, e.flags)
	}
	if err != nil {
		return nil, "", err
	}
	return t, dir, nil
}

// daemon is one running ttkvd process under test.
type daemon struct {
	cmd       *exec.Cmd
	setupTime time.Duration
	conn      *ttkvwire.Client
}

func (d *daemon) client() *ttkvwire.Client { return d.conn }
func (d *daemon) setup() time.Duration     { return d.setupTime }

// startDaemon launches bin on logDir with flags and waits until it answers
// PING.
func startDaemon(bin, logDir string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-aof-dir", logDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", daemonProcs()))
	cmd.Stderr = os.Stderr
	// A benchmark killed mid-run must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ttkvd: %w", err)
	}
	d := &daemon{cmd: cmd}
	addrCh := make(chan string, 1)
	go func() {
		// Reads stdout until the daemon exits, so it never blocks on a
		// full pipe; only the readiness line matters.
		sc := bufio.NewScanner(stdout)
		ready := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on "); ok && !ready {
				ready = true
				addrCh <- strings.Fields(rest)[0]
			}
		}
		close(addrCh)
		_, _ = io.Copy(io.Discard, stdout) // a line too long for the scanner
	}()
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			_ = cmd.Wait() // reporting the early exit
			return nil, fmt.Errorf("ttkvd exited before serving (%v)", cmd.ProcessState)
		}
		addr = a
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, fmt.Errorf("ttkvd did not report its address")
	}
	c, err := ttkvwire.Dial(addr)
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := c.Ping(); err != nil {
		c.Close()
		d.kill()
		return nil, err
	}
	d.setupTime = time.Since(start)
	d.conn = c
	return d, nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // best effort: the process may be gone
	_ = d.cmd.Wait()
}

// stop closes the connection, SIGTERMs the daemon (which drains and
// fsyncs its log) and waits for it to exit.
func (d *daemon) stop() error {
	d.conn.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("ttkvd exit: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // best effort: it may exit on its own
		<-done                   // Wait was already called: reap through it
		return fmt.Errorf("ttkvd did not stop after SIGTERM")
	}
}

func (d *daemon) procStats() (peakRSS int64, cpu time.Duration, err error) {
	return pidStats(d.cmd.Process.Pid)
}

// pidStats reads a process's peak resident set (VmHWM) and its CPU time
// (utime+stime) from /proc.
func pidStats(pid int) (peakRSS int64, cpu time.Duration, err error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, 0, err
			}
			peakRSS = kb << 10
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(stat)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	const ticks = 100 // USER_HZ on Linux
	return peakRSS, time.Duration(ut+st) * time.Second / ticks, nil
}
