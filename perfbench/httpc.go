package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"xclean/internal/cluster"
	"xclean/internal/server"
)

// Servers are assembled in-process from the constructors cmd/xserve
// uses and listen on loopback; the load comes from this process too.

// served is one running server.
type served struct {
	url  string
	stop context.CancelFunc
	done chan error
}

// serve starts s on a fresh loopback port. With a tracer the handler is
// wrapped in the tracer's handler span and served by an http.Server
// with the same timeouts server.New configures; untraced runs use the
// server's own Serve.
func serve(s *server.Server, t *Tracer) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sv := &served{url: "http://" + ln.Addr().String(), stop: cancel, done: make(chan error, 1)}
	if t == nil {
		go func() { sv.done <- s.Serve(ctx, ln) }()
		return sv, nil
	}
	hs := &http.Server{Handler: t.Handler(s.Handler()), ReadTimeout: 5 * time.Second, WriteTimeout: 30 * time.Second}
	go func() {
		errc := make(chan error, 1)
		go func() { errc <- hs.Serve(ln) }()
		select {
		case <-ctx.Done():
			sctx, c := context.WithTimeout(context.Background(), 5*time.Second)
			defer c()
			hs.Shutdown(sctx)
			<-errc
			sv.done <- nil
		case err := <-errc:
			sv.done <- err
		}
	}()
	return sv, nil
}

// close stops the server and waits until it has shut down.
func (sv *served) close() {
	sv.stop()
	<-sv.done
}

// newClient returns the load generator's HTTP client: at most one
// connection per client goroutine, and no more goroutines than CPUs.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// getSuggest issues GET /suggest and returns the raw body.
func getSuggest(c *http.Client, base, q string) ([]byte, error) {
	return getURL(c, base+"/suggest?q="+url.QueryEscape(q))
}

func getURL(c *http.Client, u string) ([]byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", u, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// postJSON issues a POST and returns the raw body of a 200 answer.
func postJSON(c *http.Client, u string, body []byte) ([]byte, error) {
	resp, err := c.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", u, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// decodeSuggest parses a GET /suggest body.
func decodeSuggest(body []byte) (server.SuggestResponse, error) {
	var r server.SuggestResponse
	err := json.Unmarshal(body, &r)
	return r, err
}

// suggestJSON issues GET /suggest and decodes the suggestions; with
// debug the server runs the engine instead of answering from its
// suggestion cache.
func suggestJSON(c *http.Client, base, q string, debug bool) ([]Sug, error) {
	u := base + "/suggest?q=" + url.QueryEscape(q)
	if debug {
		u += "&debug=1"
	}
	body, err := getURL(c, u)
	if err != nil {
		return nil, err
	}
	r, err := decodeSuggest(body)
	return fromJSON(r.Suggestions), err
}

// frontMetrics is the part of GET /metricz the benchmark reads.
type frontMetrics struct {
	CacheHits   int64                  `json:"cacheHits"`
	CacheMisses int64                  `json:"cacheMisses"`
	Cluster     []cluster.ShardMetrics `json:"cluster"`
}

// metricz reads the front server's cache and fan-out counters.
func metricz(c *http.Client, base string) (frontMetrics, error) {
	var m frontMetrics
	resp, err := c.Get(base + "/metricz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metricz: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}
