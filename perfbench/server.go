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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is a `gmine serve` child process: RSS and CPU of the server
// are its own, not the load generator's.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
	done   chan struct{}
}

// startServer launches bin as `gmine serve` on a free loopback port and
// waits until /healthz answers. maxConns bounds the client's connections.
func startServer(bin string, maxConns int) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &serverProc{base: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve", "-addr", addr, "-log", "off", "-timeout", "170s")
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait()
		close(s.done)
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true,
	}}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("server exited during start-up: %s", s.stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server did not answer /healthz within 15s")
		}
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop asks the server to shut down, kills it if it lingers, and waits for
// it to exit.
func (s *serverProc) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// createSession posts a session body and waits for the build.
func (s *serverProc) createSession(body any) error {
	b, _ := json.Marshal(body)
	resp, err := s.client.Post(s.base+"/sessions", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create session: %d %s", resp.StatusCode, msg)
	}
	return nil
}

// outcome is one answered (or failed) request.
type outcome struct {
	status int
	body   []byte
	cache  string // X-Gmine-Cache: hit, miss, coalesced or "" (uncached route)
	dur    time.Duration
	err    error
}

func (s *serverProc) do(r request) outcome {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, s.base+"/sessions/"+sessionName+r.path, body)
	if err != nil {
		return outcome{err: err}
	}
	begin := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return outcome{err: err, dur: time.Since(begin)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{status: resp.StatusCode, body: b, cache: resp.Header.Get("X-Gmine-Cache"), dur: time.Since(begin), err: err}
}

// cpuTimes reads the machine's total and stolen CPU time in clock ticks
// from /proc/stat. Steal is time the hypervisor gave to other guests: a
// run that lost a lot of it is slower for reasons outside the program.
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, v := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
