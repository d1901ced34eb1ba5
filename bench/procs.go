//fp:allow-file walltime the benchmark times real child processes

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fakeproject/internal/metrics"
)

// daemons are the programs under test, built from the repository's own
// commands.
var daemons = []string{"twitterd", "routerd", "auditd"}

// buildDaemons compiles the daemons into binDir. The go tool skips a
// binary that is already up to date, so only the first run in a checkout
// pays for compilation, and none of it is ever inside a timed section.
func buildDaemons(binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, d := range daemons {
		args = append(args, "./cmd/"+d)
	}
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return nil
}

// freeAddr returns a loopback address nothing listens on, found by binding
// port 0 and letting go of it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// child is one process the benchmark started.
type child struct {
	name   string
	cmd    *exec.Cmd
	addr   string // HTTP address; empty for the churn worker
	exited chan struct{}
	// Pipes to the churn worker (nil for daemons).
	stdin  io.WriteCloser
	stdout *bufio.Reader
}

// janitor owns everything a run leaves behind — child processes and
// scratch directories — so that normal exit and SIGINT/SIGTERM clean up the
// same way.
type janitor struct {
	mu       sync.Mutex
	children []*child
	dirs     []string
}

func (j *janitor) addDir(dir string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dirs = append(j.dirs, dir)
}

// start launches a child with its stderr (and a daemon's stdout) appended
// to logDir/<name>.log. A worker keeps stdin and stdout as pipes.
func (j *janitor) start(name, logDir, bin string, worker bool, args ...string) (*child, error) {
	logFile, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	c := &child{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	c.cmd.Stderr = logFile
	if worker {
		if c.stdin, err = c.cmd.StdinPipe(); err != nil {
			return nil, err
		}
		out, err := c.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		c.stdout = bufio.NewReader(out)
	} else {
		c.cmd.Stdout = logFile
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status of a process we kill says nothing
		close(c.exited)
	}()
	j.mu.Lock()
	j.children = append(j.children, c)
	j.mu.Unlock()
	return c, nil
}

// stop ends a child — SIGTERM, then SIGKILL after a grace period — and
// returns once it has exited.
func (c *child) stop() {
	select {
	case <-c.exited:
		return
	default:
	}
	if c.stdin != nil {
		c.stdin.Close()
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// stopAll ends every child still running.
func (j *janitor) stopAll() {
	j.mu.Lock()
	children := j.children
	j.children = nil
	j.mu.Unlock()
	for _, c := range children {
		c.stop()
	}
}

// close stops all children and removes the scratch directories.
func (j *janitor) close() {
	j.stopAll()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, dir := range j.dirs {
		os.RemoveAll(dir)
	}
	j.dirs = nil
}

// waitHealthy polls the child's /healthz until it answers 200.
func (c *child) waitHealthy(client *http.Client, deadline time.Time) error {
	url := "http://" + c.addr + "/healthz"
	for {
		resp, err := client.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before serving", c.name)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy in time (last error: %v)", c.name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procUsage is what /proc says a process has used so far.
type procUsage struct {
	PeakRSSMiB float64 // VmHWM
	RSSMiB     float64 // VmRSS
	CPUSeconds float64
}

// usage reads the child's resident set, its peak and its CPU time from
// /proc. It must be called while the process is alive.
func (c *child) usage() (procUsage, error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procUsage{}, fmt.Errorf("reading usage of %s: %w", c.name, err)
	}
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procUsage{}, fmt.Errorf("reading usage of %s: %w", c.name, err)
	}
	u, err := parseProcUsage(status, stat)
	if err != nil {
		return procUsage{}, fmt.Errorf("usage of %s: %w", c.name, err)
	}
	return u, nil
}

// parseProcUsage extracts VmHWM and VmRSS from /proc/<pid>/status and
// utime+stime from /proc/<pid>/stat.
func parseProcUsage(status, stat []byte) (procUsage, error) {
	var u procUsage
	for _, line := range bytes.Split(status, []byte("\n")) {
		key, rest, _ := bytes.Cut(line, []byte(":"))
		var into *float64
		switch string(key) {
		case "VmHWM":
			into = &u.PeakRSSMiB
		case "VmRSS":
			into = &u.RSSMiB
		default:
			continue
		}
		fields := bytes.Fields(rest)
		if len(fields) == 0 {
			return u, fmt.Errorf("bad %s line", key)
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return u, fmt.Errorf("bad %s %q", key, rest)
		}
		*into = kb / 1024
	}
	if u.PeakRSSMiB == 0 || u.RSSMiB == 0 {
		return u, errors.New("no VmHWM or VmRSS in status")
	}
	// The command name is parenthesised and may hold spaces; the numbered
	// fields resume after the last ')'. utime and stime are fields 14, 15.
	i := bytes.LastIndexByte(stat, ')')
	fields := bytes.Fields(stat[i+1:])
	if i < 0 || len(fields) < 13 {
		return u, errors.New("short stat line")
	}
	utime, err1 := strconv.ParseFloat(string(fields[11]), 64)
	stime, err2 := strconv.ParseFloat(string(fields[12]), 64)
	if err1 != nil || err2 != nil {
		return u, errors.New("bad utime/stime in stat")
	}
	u.CPUSeconds = (utime + stime) / userHZ
	return u, nil
}

// scrape fetches the child's /metrics.json.
func (c *child) scrape(client *http.Client) (metrics.SnapshotJSON, error) {
	var snap metrics.SnapshotJSON
	resp, err := client.Get("http://" + c.addr + "/metrics.json")
	if err != nil {
		return snap, fmt.Errorf("scraping %s: %w", c.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("scraping %s: status %d", c.name, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("scraping %s: %w", c.name, err)
	}
	return snap, nil
}

// famTotals sums a family over the series whose labels include want: the
// value of counters and gauges, and the count and sum (seconds) of
// histograms.
func famTotals(snap metrics.SnapshotJSON, family string, want map[string]string) (value float64, count uint64, sum float64) {
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
	series:
		for _, s := range f.Series {
			for k, v := range want {
				if s.Labels[k] != v {
					continue series
				}
			}
			if s.Value != nil {
				value += *s.Value
			}
			if s.Count != nil && s.Sum != nil {
				count += *s.Count
				sum += *s.Sum
			}
		}
	}
	return value, count, sum
}

// counterDelta is how much a counter family grew between two scrapes.
func counterDelta(before, after metrics.SnapshotJSON, family string, want map[string]string) float64 {
	b, _, _ := famTotals(before, family, want)
	a, _, _ := famTotals(after, family, want)
	return a - b
}

// histDelta is the observations a histogram family gained between two
// scrapes: how many, and their sum in seconds.
func histDelta(before, after metrics.SnapshotJSON, family string, want map[string]string) (n uint64, sum float64) {
	_, bc, bs := famTotals(before, family, want)
	_, ac, as := famTotals(after, family, want)
	if ac <= bc {
		return 0, 0
	}
	return ac - bc, as - bs
}

// histMeanDelta is the mean of those observations, in microseconds.
func histMeanDelta(before, after metrics.SnapshotJSON, family string, want map[string]string) (meanUS float64, n uint64) {
	n, sum := histDelta(before, after, family, want)
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n) * 1e6, n
}
