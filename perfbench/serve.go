package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bioenrich/internal/loadtest"
)

// server is one cmd/serve process under the benchmark's control. It
// runs as its own process so its CPU and memory come from
// /proc/<pid> and never mix with the generator's.
type server struct {
	cmd   *exec.Cmd
	waitc chan error
	base  string
	log   *os.File
}

// startServer spawns serveBin on the corpus at an ephemeral port and
// returns once the port is known (not yet ready). dataDir, when not
// empty, selects durable serving with the default -wal-sync.
func startServer(ctx context.Context, serveBin, runDir, tag, corpusPath, ontPath, dataDir string) (*server, error) {
	addrPath := filepath.Join(runDir, tag+".addr")
	logf, err := os.Create(filepath.Join(runDir, tag+".log"))
	if err != nil {
		return nil, err
	}
	args := []string{
		"-corpus", corpusPath, "-ontology", ontPath,
		"-addr", "127.0.0.1:0", "-addr-file", addrPath,
		"-log-level", "warn",
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(serveBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", serveBin, err)
	}
	s := &server{cmd: cmd, waitc: make(chan error, 1), log: logf}
	go func() { s.waitc <- cmd.Wait() }()

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if raw, err := os.ReadFile(addrPath); err == nil && strings.HasSuffix(string(raw), "\n") {
			s.base = "http://" + strings.TrimSpace(string(raw))
			return s, nil
		}
		select {
		case err := <-s.waitc:
			s.waitc <- err
			s.stop()
			return nil, fmt.Errorf("server exited before listening (%v); see %s", err, logf.Name())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

// waitReady blocks until GET /v1/ready answers 200.
func (s *server) waitReady(ctx context.Context, client *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	return loadtest.WaitReady(ctx, client, s.base, 2*time.Millisecond)
}

// stop sends SIGTERM (cmd/serve drains and checkpoints), escalates to
// SIGKILL after a grace period, and waits for the process to exit. It
// returns the exit error of a process that did not stop cleanly.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.waitc:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.waitc
		return fmt.Errorf("server ignored SIGTERM; killed")
	}
}

// procSample is the server's /proc view at one instant, with the
// host's CPU counters from /proc/stat.
type procSample struct {
	cpuTicks int64 // utime + stime, in USER_HZ ticks
	hwmKB    int64 // VmHWM: peak resident set
	// hostSteal and hostTotal are the steal and all ticks of every
	// CPU: steal is time the hypervisor ran something else while a
	// CPU of this machine had work.
	hostSteal, hostTotal int64
}

// userHZ is the Linux /proc clock-tick rate (fixed at 100 on every
// architecture the kernel exports to user space).
const userHZ = 100

func readProc(pid int) (procSample, error) {
	var p procSample
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, so 12 and 13 here.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return p, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	p.cpuTicks = ut + st
	if p.hostSteal, p.hostTotal, err = readHostCPU(); err != nil {
		return p, err
	}

	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return p, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			p.hwmKB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return p, err
		}
	}
	return p, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// readHostCPU returns the steal ticks and the sum of all ticks from
// the aggregate "cpu" line of /proc/stat.
func readHostCPU() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// promSample maps a rendered series ("name{labels}") to its value, as
// read from one GET /v1/metrics.
type promSample map[string]float64

func scrape(ctx context.Context, client *http.Client, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := promSample{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// window is the server-side view of one measured window: the scrapes
// and /proc samples at its two edges.
type window struct {
	before, after         promSample
	procBefore, procAfter procSample
}

// d is the change of one series over the window (absent counts as 0).
func (w window) d(series string) float64 { return w.after[series] - w.before[series] }

// cpuMS is the server's CPU time over the window in milliseconds.
func (w window) cpuMS() float64 {
	return float64(w.procAfter.cpuTicks-w.procBefore.cpuTicks) * 1000 / userHZ
}

// stealFrac is the share of the host's CPU time over the window that
// the hypervisor gave to something else. It is a validity signal: the
// program cannot cause it, and every wall-clock metric of the window
// grows with it.
func (w window) stealFrac() float64 {
	total := w.procAfter.hostTotal - w.procBefore.hostTotal
	if total <= 0 {
		return 0
	}
	return float64(w.procAfter.hostSteal-w.procBefore.hostSteal) / float64(total)
}

// handlerMeanMS is the server-side mean handler time of one route
// over the window, from bioenrich_http_request_seconds.
func (w window) handlerMeanMS(route string) float64 {
	lbl := `{endpoint="` + route + `"}`
	n := w.d("bioenrich_http_request_seconds_count" + lbl)
	if n == 0 {
		return 0
	}
	return w.d("bioenrich_http_request_seconds_sum"+lbl) / n * 1000
}
