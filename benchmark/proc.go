package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries builds cmd/enaserve and cmd/enasim from the checkout at root
// into dir.
func buildBinaries(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator), "./cmd/enaserve", "./cmd/enasim")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// server is one enaserve process the benchmark started.
type server struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *tailBuffer
	done chan struct{} // closed once the process has been reaped
	err  error         // the process's exit error, valid after done
}

// startServer execs bin with args followed by -addr on a free loopback port
// and a short -grace, and returns without waiting for it to listen (see
// waitReady). bin is enaserve, or this benchmark's own echo server.
func startServer(bin, name string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{name: name, url: "http://" + addr, log: &tailBuffer{max: 8 << 10}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append(append([]string(nil), args...), "-addr", addr, "-grace", "5s")...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// runEcho is the `enabench echo` subcommand: a trivial net/http server, in a
// process of its own like enaserve, that answers every request with -bytes
// bytes. It is the transport baseline of the simulate latency budget.
func runEcho(args []string) int {
	fs := flag.NewFlagSet("enabench echo", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	n := fs.Int("bytes", 0, "response body size")
	fs.Duration("grace", 0, "accepted for enaserve compatibility")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	body := bytes.Repeat([]byte("x"), *n)
	srv := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		_ = srv.Close() // ListenAndServe then returns ErrServerClosed
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "enabench echo:", err)
		return 1
	}
	return 0
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

// waitReady polls GET /healthz until the server answers 200.
func (s *server) waitReady(ctx context.Context, client *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("%s exited before it was ready: %v\n%s", s.name, s.err, s.log)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", s.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited within 15 s. It returns once the process has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// stopAll stops the servers in reverse start order.
func stopAll(ss []*server) {
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].stop()
	}
}

// rssMiB reads the process's resident set size.
func (s *server) rssMiB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// rssSampler samples the summed resident set size of a set of servers every
// 100 ms. Its median is steadier than the high-water mark, which records
// whichever transient peak the garbage collector happened to allow.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // written by the sampling goroutine until done
	err        error
}

func sampleRSS(ss []*server) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			var sum float64
			for _, sv := range ss {
				v, err := sv.rssMiB()
				if err != nil {
					s.err = err
					return
				}
				sum += v
			}
			s.samples = append(s.samples, sum)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.samples), s.err
}

// tailBuffer keeps the last max bytes written to it: a server's log, kept
// for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
