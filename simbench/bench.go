package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// instance is one in-process durable simd: the server over a data
// directory, behind a loopback HTTP listener, and a client limited to
// two connections that never retries (a refused request is a failed
// op, not a hidden backoff).
type instance struct {
	srv *service.Server
	ts  *httptest.Server
	tr  *http.Transport
	c   *service.Client
}

// openInstance reopens (or creates) a durable server over dataDir.
// traceBuffer sizes the server's execution-trace rings (0: default).
func openInstance(dataDir string, traceBuffer int) (*instance, error) {
	srv, _, err := service.NewDurableServer(service.Options{
		DataDir:     dataDir,
		Workers:     2,
		TraceBuffer: traceBuffer,
	})
	if err != nil {
		return nil, err
	}
	in := &instance{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		tr:  &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
	in.c = service.NewClient(in.ts.URL)
	in.c.HTTPClient = &http.Client{Transport: in.tr}
	in.c.MaxRetries = -1
	return in, nil
}

// close stops the listener (waiting for in-flight requests) and drains
// the server.
func (in *instance) close() error {
	in.tr.CloseIdleConnections()
	in.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return in.srv.Close(ctx)
}

// reqRec is one request of a traced op: its request id (the trace id
// on the server), the route it hit and its client-side latency.
type reqRec struct {
	id    string
	route string
	lat   time.Duration
	bytes int // request body bytes, for uploads
}

// caller issues the benchmark's requests. In the traced phase every
// request carries a fresh X-Request-Id, so its span tree can be
// fetched from /debug/traces afterwards, and the client-side latency
// is recorded next to that id.
type caller struct {
	in     *instance
	traced bool
	seq    atomic.Int64

	mu   sync.Mutex
	kept []any // sample of decoded responses for the JSON probe; guarded by mu
}

// maxKept bounds the responses the traced phase keeps.
const maxKept = 256

// do runs one request.
func (k *caller) do(rec *opRec, route string, bytes int, f func(c *service.Client) error) error {
	c := k.in.c
	var id string
	if k.traced {
		cp := *k.in.c
		id = "simbench-" + strconv.FormatInt(k.seq.Add(1), 10)
		cp.RequestID = id
		c = &cp
	}
	t0 := time.Now()
	err := f(c)
	if k.traced && rec != nil {
		rec.reqs = append(rec.reqs, reqRec{id: id, route: route, lat: time.Since(t0), bytes: bytes})
	}
	return err
}

// keep retains a response for the JSON-encode probe (traced phase).
func (k *caller) keep(v any) {
	if !k.traced {
		return
	}
	k.mu.Lock()
	if len(k.kept) < maxKept {
		k.kept = append(k.kept, v)
	}
	k.mu.Unlock()
}

// scrape fetches /metrics, the one endpoint service.Client does not
// wrap.
func (k *caller) scrape(ctx context.Context, rec *opRec) (string, error) {
	var body []byte
	err := k.do(rec, "scrape", 0, func(c *service.Client) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
		if err != nil {
			return err
		}
		if c.RequestID != "" {
			req.Header.Set("X-Request-Id", c.RequestID)
		}
		resp, err := c.HTTPClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if body, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
		}
		return nil
	})
	return string(body), err
}

// checkError marks an op whose response the benchmark found wrong, as
// opposed to one that failed outright.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

func isCheck(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// copyTree copies a data directory (regular files and directories
// only), so every reopen starts from the same bytes the previous
// session left behind.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
