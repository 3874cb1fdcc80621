package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"trilist/internal/server"
)

// proc is one running trid process.
type proc struct {
	cmd  *exec.Cmd
	url  string        // base URL, http://127.0.0.1:port
	done chan struct{} // closed once the process has exited and been reaped
}

// startTrid launches bin on a free loopback port and returns once it
// has printed its listen address.
func startTrid(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// A benchmark that dies must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting trid: %w", err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stdout until trid exits, then reap it; Wait must not
		// run before the pipe is read to the end.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "trid listening on "); ok {
				addr <- a
			}
		}
		_ = cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("trid %v exited before listening", args)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("trid %v did not start listening within 30s", args)
	}
}

// stop asks trid to drain (SIGTERM) and waits for it to exit, killing
// it if the drain takes too long.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSSMiB reads the process's high-water resident set size (VmHWM).
func (p *proc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// client speaks trid's HTTP JSON API.
type client struct {
	hc  *http.Client
	url string
}

// do sends one request and reads the whole reply. The returned duration
// runs from sending the request to reading the last body byte.
func (c *client) do(method, path string, body []byte) (code int, reply []byte, d time.Duration, err error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	d = time.Since(t0)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	return resp.StatusCode, reply, d, nil
}

// graphInfo is the reply of POST /v1/graphs.
type graphInfo struct {
	ID     string `json:"id"`
	Nodes  int    `json:"nodes"`
	Edges  int64  `json:"edges"`
	Cached bool   `json:"cached"`
}

func (c *client) register(body []byte) (graphInfo, time.Duration, error) {
	var info graphInfo
	code, reply, d, err := c.do(http.MethodPost, "/v1/graphs", body)
	if err != nil {
		return info, 0, err
	}
	if code != http.StatusCreated && code != http.StatusOK {
		return info, 0, fmt.Errorf("register: HTTP %d: %s", code, bytes.TrimSpace(reply))
	}
	if err := json.Unmarshal(reply, &info); err != nil {
		return info, 0, fmt.Errorf("register: decoding reply: %w", err)
	}
	return info, d, nil
}

// jobReply is one job reply as the client saw it.
type jobReply struct {
	raw   []byte // the reply body, until decode
	bytes int    // reply body size
	d     time.Duration
	view  server.JobView // filled by decode
}

// job submits spec with wait:true and returns the reply undecoded, so a
// caller sharing the CPUs with trid can decode it later.
func (c *client) job(spec server.JobSpec) (jobReply, error) {
	spec.Wait = true
	body, err := json.Marshal(spec)
	if err != nil {
		return jobReply{}, err
	}
	code, reply, d, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return jobReply{}, err
	}
	if code != http.StatusOK {
		return jobReply{}, fmt.Errorf("job: HTTP %d: %s", code, bytes.TrimSpace(reply))
	}
	return jobReply{raw: reply, bytes: len(reply), d: d}, nil
}

// decode parses the reply into view and fails unless the job finished.
func (r *jobReply) decode() error {
	err := json.Unmarshal(r.raw, &r.view)
	r.raw = nil
	if err != nil {
		return fmt.Errorf("job: decoding reply: %w", err)
	}
	if r.view.Status != string(server.JobDone) {
		return fmt.Errorf("job %s ended %s: %s", r.view.ID, r.view.Status, r.view.Error)
	}
	return nil
}

func (c *client) healthz() error {
	code, reply, _, err := c.do(http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d: %s", code, bytes.TrimSpace(reply))
	}
	return nil
}

// counters scrapes /metrics and returns the sum over all series of each
// named metric.
func (c *client) counters(names ...string) (map[string]float64, error) {
	code, reply, _, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", code)
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(reply), "\n") {
		name, rest, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		for _, want := range names {
			if name == want {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return nil, fmt.Errorf("metrics: parsing %q: %w", line, err)
				}
				out[name] += v
			}
		}
	}
	return out, nil
}
