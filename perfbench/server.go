package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one running fastlsa-server child process.
type serverProc struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	done     chan error
	log      *os.File
	stopOnce sync.Once
}

// freePort asks the kernel for an unused loopback port. The server prints
// its -addr flag rather than the bound port, so the benchmark chooses it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the server and waits for its first /readyz 200. The
// returned duration runs from exec to that response: corpus load, index
// build and journal replay all happen before the server reports ready.
func startServer(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	p := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go func() { p.done <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			logf.Close()
			return nil, 0, fmt.Errorf("server exited during start-up (%v); log in %s", err, logPath)
		default:
		}
		resp, err := probe.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		// Start-up takes a few milliseconds without a corpus: a coarser probe
		// interval would round setup_s to whole probe steps.
		time.Sleep(200 * time.Microsecond)
	}
	p.stop()
	return nil, 0, fmt.Errorf("server not ready after 120s; log in %s", logPath)
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it outlives the grace period. It returns once the process has exited;
// later calls return at once.
func (p *serverProc) stop() {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
	})
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// metrics is one /metrics scrape: series (name plus label set) to value.
type metrics map[string]float64

func scrape(ctx context.Context, hc *http.Client, base string) (metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := metrics{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

// sum adds every series of the named family whose labels contain all of
// the given label fragments (e.g. `backend="wfa"`).
func (m metrics) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range m {
		fam, rest, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after-before for one family (summed over matching labels).
func delta(before, after metrics, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
