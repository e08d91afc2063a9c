package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100
// on every Linux architecture Go supports).
const clockTicks = 100

// serveProc is one running cmd/serve process.
type serveProc struct {
	cmd    *exec.Cmd
	exited chan error
	base   string // http://127.0.0.1:port
	setup  time.Duration
	log    bytes.Buffer
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServe launches serve over the bootstrap with a fresh durable
// replication WAL and returns once /healthz first answers 200; the time
// from launch to then is the set-up time.
func startServe(bin, bootDir, walDir string, mine bool) (*serveProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}
	p := &serveProc{base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan error, 1)}
	args := []string{"-logs", bootDir, "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-repl-wal", walDir, "-repl-sync"}
	if mine {
		args = append(args, "-mine")
	}
	p.cmd = exec.Command(filepath.Join(bin, "serve"), args...)
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start serve: %w", err)
	}
	go func() { p.exited <- p.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for time.Since(start) < 120*time.Second {
		select {
		case err := <-p.exited:
			return nil, fmt.Errorf("serve exited during set-up: %v\n%s", err, p.log.String())
		default:
		}
		if resp, err := probe.Get(p.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(start)
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("serve not healthy within 120s\n%s", p.log.String())
}

// stop asks serve to drain and waits for it to exit.
func (p *serveProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.exited:
		if err != nil {
			return fmt.Errorf("serve: %v\n%s", err, p.log.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return fmt.Errorf("serve did not drain within 30s")
	}
}

// kill stops serve at once and waits for it.
func (p *serveProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// cpu is serve's user+system CPU time so far.
func (p *serveProc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB is serve's VmHWM in MiB.
func (p *serveProc) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// vmHWM reads the peak resident set from a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// getBody fetches a URL and returns the body of a 200 answer.
func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// health is the part of /healthz the gate checks.
type health struct {
	Records   int    `json:"records"`
	Watermark uint64 `json:"watermark"`
}

func (p *serveProc) health(c *http.Client) (health, error) {
	var h health
	body, err := getBody(c, p.base+"/healthz")
	if err == nil {
		err = json.Unmarshal(body, &h)
	}
	return h, err
}

// promMetrics parses the unlabelled samples of /metrics.
func (p *serveProc) promMetrics(c *http.Client) (map[string]float64, error) {
	body, err := getBody(c, p.base+"/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		l := sc.Text()
		if strings.HasPrefix(l, "#") || strings.Contains(l, "{") {
			continue
		}
		name, val, ok := strings.Cut(l, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// memStats is the runtime.MemStats section of the heap profile.
type memStats struct {
	heapAlloc float64
	numGC     int
	pauseNs   []float64 // the runtime's 256-entry ring of recent pauses
}

// heap reads serve's MemStats from /debug/pprof/heap; gc forces a
// collection first, so HeapAlloc is the live heap.
func (p *serveProc) heap(c *http.Client, gc bool) (memStats, error) {
	url := p.base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	var ms memStats
	body, err := getBody(c, url)
	if err != nil {
		return ms, err
	}
	for _, l := range strings.Split(string(body), "\n") {
		key, val, ok := strings.Cut(strings.TrimPrefix(l, "# "), " = ")
		if !ok {
			continue
		}
		switch key {
		case "HeapAlloc":
			ms.heapAlloc, err = strconv.ParseFloat(val, 64)
		case "NumGC":
			ms.numGC, err = strconv.Atoi(val)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				v, perr := strconv.ParseFloat(f, 64)
				if perr != nil {
					err = perr
				}
				ms.pauseNs = append(ms.pauseNs, v)
			}
		}
		if err != nil {
			return ms, fmt.Errorf("heap profile %s: %w", key, err)
		}
	}
	return ms, nil
}

// gcBetween returns the collections and their total pause between two
// MemStats readings. The runtime keeps only the last 256 pauses; past
// that the total is scaled up from the ones it kept.
func gcBetween(a, b memStats) (cycles int, pause time.Duration) {
	cycles = b.numGC - a.numGC
	if len(b.pauseNs) == 0 || cycles <= 0 {
		return cycles, 0
	}
	kept := min(cycles, len(b.pauseNs))
	var sum float64
	for k := b.numGC - kept + 1; k <= b.numGC; k++ {
		sum += b.pauseNs[(k-1)%len(b.pauseNs)]
	}
	return cycles, time.Duration(sum * float64(cycles) / float64(kept))
}
