package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"skewjoin"
	"skewjoin/internal/cluster"
	"skewjoin/internal/service"
)

// drainTimeout bounds each step of a shutdown: draining admitted joins and
// closing the HTTP servers. A join that outlives it is cut off.
const drainTimeout = 20 * time.Second

// deployment is the system under test inside this process: one service,
// or several behind the cluster router, each on its own loopback listener.
type deployment struct {
	services  []*service.Server
	router    *cluster.Router
	front     string     // base URL the client talks to
	endpoints []endpoint // front door first

	wg       sync.WaitGroup // one per Serve goroutine
	errMu    sync.Mutex
	serveErr error //skewlint:guarded-by errMu

	client      *http.Client // the benchmark's client
	clientConns *http.Transport
	shardConns  *http.Transport // router → shard calls

	// cal is the split planner's pinned CPU constants, nil when every
	// service calibrates lazily on its first split join. Answers from a
	// deployment with cal set must report the plan it yields.
	cal *skewjoin.Calibration
}

// endpoint is one listening HTTP server; svc is nil for the router.
type endpoint struct {
	srv  *http.Server
	addr string
	svc  *service.Server
}

// deploy starts a single service, or shards services behind a router.
// A non-nil cal pins every service's split-planner calibration.
func deploy(shards int, cal *skewjoin.Calibration) (*deployment, error) {
	d := &deployment{clientConns: &http.Transport{MaxIdleConnsPerHost: 4}, cal: cal}
	d.client = &http.Client{Transport: d.clientConns}
	n := shards
	if n == 0 {
		n = 1
	}
	var urls []string
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Calibration: cal})
		url, err := d.serve(svc, svc)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.services = append(d.services, svc)
		urls = append(urls, url)
	}
	if shards == 0 {
		d.front = urls[0]
		return d, nil
	}
	d.shardConns = &http.Transport{MaxIdleConnsPerHost: 8}
	rt, err := cluster.NewRouter(cluster.Config{ShardURLs: urls, HTTPClient: &http.Client{Transport: d.shardConns}})
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	d.router = rt
	if d.front, err = d.serve(rt, nil); err != nil {
		return nil, errors.Join(err, d.close())
	}
	// The router must stop before its shards, so it leads the list.
	last := len(d.endpoints) - 1
	d.endpoints = append(d.endpoints[last:], d.endpoints[:last]...)
	return d, nil
}

func (d *deployment) serve(h http.Handler, svc *service.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.endpoints = append(d.endpoints, endpoint{srv: srv, addr: ln.Addr().String(), svc: svc})
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			d.errMu.Lock()
			d.serveErr = errors.Join(d.serveErr, err)
			d.errMu.Unlock()
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the deployment on every exit path: the front door stops
// taking requests and finishes the ones it has, each service refuses new
// work and drains its admitted joins, every listener closes, and every
// goroutine the deployment started has returned when close returns.
func (d *deployment) close() error {
	var errs []error
	for _, ep := range d.endpoints {
		if ep.svc != nil {
			ep.svc.BeginDrain()
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			if err := ep.svc.DrainJoins(ctx); err != nil {
				errs = append(errs, fmt.Errorf("drain %s: %w", ep.addr, err))
			}
			cancel()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := ep.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown %s: %w", ep.addr, err), ep.srv.Close())
		}
		cancel()
	}
	d.wg.Wait()
	d.clientConns.CloseIdleConnections()
	if d.shardConns != nil {
		d.shardConns.CloseIdleConnections()
	}
	d.errMu.Lock()
	errs = append(errs, d.serveErr)
	d.errMu.Unlock()
	return errors.Join(errs...)
}

// post sends one JSON request and decodes a 2xx answer into out.
func (d *deployment) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.front+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read %s response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		var er service.ErrorResponse
		if json.Unmarshal(raw, &er) != nil || er.Error == "" {
			er.Error = string(raw)
		}
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, er.Error)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decode %s response: %w", path, err)
	}
	return nil
}

// register posts both relations through the front door and returns the
// time it took.
func (d *deployment) register(ctx context.Context, in *inputs) (time.Duration, error) {
	start := time.Now()
	for _, body := range [][]byte{in.regR, in.regS} {
		if err := d.post(ctx, "/relations", body, nil); err != nil {
			return 0, fmt.Errorf("register: %w", err)
		}
	}
	return time.Since(start), nil
}

// answer is one /join reply as either tier sends it: the router's reply is
// the single-node reply plus the per-shard breakdown.
type answer = cluster.JoinResponse

// join sends the workload's request once and checks the answer, and on a
// deployment with a pinned calibration also the split plan it ran.
func (d *deployment) join(ctx context.Context, w workload, body []byte, want *oracle) (*answer, time.Duration, error) {
	var a answer
	start := time.Now()
	path := "/join"
	if w.limit > 0 { // the interactive client bounds the join in the query
		path += fmt.Sprintf("?limit=%d", w.limit)
	}
	err := d.post(ctx, path, body, &a)
	rtt := time.Since(start)
	if err != nil {
		return nil, rtt, err
	}
	if err := want.check(w, &a.JoinResponse); err != nil {
		return nil, rtt, fmt.Errorf("wrong answer: %w", err)
	}
	if d.cal != nil {
		if err := w.checkPlan(a.Split); err != nil {
			return nil, rtt, fmt.Errorf("wrong path: %w", err)
		}
	}
	return &a, rtt, nil
}
