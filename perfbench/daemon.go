package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"infoshield/internal/serve"
)

// Request headers that carry a traced request's identity to the
// benchmark's handler wrapper.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// daemon is the serving stack on a loopback listener inside this
// process: serve.Server's handler behind net/http, exactly what
// infoshieldd runs.
type daemon struct {
	srv  *http.Server
	base string
	done chan error
}

// startDaemon serves sh on 127.0.0.1. With a tracer the handler is
// wrapped to record one span per request, parented to the client's
// round-trip span.
func startDaemon(sh *serve.Sharded, tr *Tracer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := serve.NewServer(sh, "").Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	d := &daemon{
		srv:  &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down and waits for Serve to return.
func (d *daemon) stop() error {
	err := d.srv.Close()
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// traceHandler records the handler interval of every traced request:
// writes as serve.handler, reads as serve.read_handler. Untraced
// requests (control calls) pass through.
func traceHandler(h http.Handler, tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, perr := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, rerr := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if perr != nil || rerr != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		name := "serve.handler"
		if r.Method == http.MethodGet {
			name = "serve.read_handler"
		}
		tr.Add(parent, req, name, start, end)
	})
}

// client is one keep-alive connection to the daemon.
type client struct {
	hc   *http.Client
	base string
	tr   *Tracer
}

func newClient(base string, tr *Tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a 200 answer into out. When traced,
// the round trip is recorded as span rtt under root, and the handler
// wrapper parents its span to it; the round trip minus the handler is
// the network and client-stack time.
func (c *client) call(method, path string, body []byte, out any, root, req int64) (send time.Time, err error) {
	hreq, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return time.Time{}, err
	}
	var rtt int64
	if root != 0 {
		rtt = c.tr.Reserve()
		hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hreq.Header.Set(hdrSpan, strconv.FormatInt(rtt, 10))
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	send = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return send, err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end; nothing left to lose
	if rtt != 0 {
		c.tr.Set(rtt, root, req, "net.rtt", send, time.Now())
	}
	if err != nil {
		return send, err
	}
	if resp.StatusCode != http.StatusOK {
		return send, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return send, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return send, nil
}

// stats fetches GET /v1/stats.
func (c *client) stats() (serve.ShardedStats, error) {
	var st serve.ShardedStats
	_, err := c.call(http.MethodGet, "/v1/stats", nil, &st, 0, 0)
	return st, err
}

// flush posts POST /v1/flush.
func (c *client) flush() error {
	_, err := c.call(http.MethodPost, "/v1/flush", nil, nil, 0, 0)
	return err
}

// commit is one call of the coalescer's Commit hook — one group commit
// (shard-local ids) — or, with flush set, a mining pass forced between
// commits (an operator flush or a snapshot).
type commit struct {
	ids   []int
	texts []string
	flush bool
}

// commitLog records every group commit through serve.Options.Commit, in
// the order each shard's sequencer made them. It is the benchmark's view
// of the coalescer and shard layers: how many commits, how many
// documents each, and the exact sequence a replay must reproduce.
type commitLog struct {
	mu    sync.Mutex
	calls []commit
}

func (l *commitLog) hook(ids []int, texts []string) error {
	c := commit{ids: append([]int(nil), ids...), texts: append([]string(nil), texts...)}
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
	return nil
}

// markFlush records a mining pass every shard ran at this point (no
// commit is in flight: the caller holds the only writer).
func (l *commitLog) markFlush() {
	l.mu.Lock()
	l.calls = append(l.calls, commit{flush: true})
	l.mu.Unlock()
}

func (l *commitLog) snapshot() []commit {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]commit(nil), l.calls...)
}

// counts returns the number of group commits and the documents in them.
func (l *commitLog) counts() (commits, docs int) {
	for _, c := range l.snapshot() {
		if !c.flush {
			commits++
			docs += len(c.ids)
		}
	}
	return commits, docs
}

// perShard splits the log into each shard's commit sequence. shardOf
// names a commit's shard; flush marks go to every shard.
func (l *commitLog) perShard(n int, shardOf func(c commit) (int, bool)) ([][]commit, error) {
	out := make([][]commit, n)
	for _, c := range l.snapshot() {
		if c.flush {
			for k := range out {
				out[k] = append(out[k], c)
			}
			continue
		}
		k, ok := shardOf(c)
		if !ok {
			return nil, fmt.Errorf("commit of id %d: no acked document has its text", c.ids[0])
		}
		out[k] = append(out[k], c)
	}
	return out, nil
}
