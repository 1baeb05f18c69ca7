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

	"ctcomm/internal/query"
	"ctcomm/internal/router"
	"ctcomm/internal/serve"
)

// replicaCount and the one worker per replica match a 2-core host: one
// core's worth of evaluation per replica.
const replicaCount = 2

// warmMachines are the machines the warm-up calibrates.
var warmMachines = []string{"t3d", "paragon", "cluster", "xe6"}

// fleet is a ctrouter in front of replicaCount ctserved replicas, all
// in this process, on real loopback listeners.
type fleet struct {
	servers  []*serve.Server
	https    []*http.Server
	rt       *router.Router
	routerHS *http.Server
	serving  sync.WaitGroup

	base     string            // router base URL
	replicas map[string]string // ring name -> replica base URL
	names    []string          // ring names in boot order
}

// bootFleet starts the replicas and the router. Replicas run with one
// worker, no service floor and no persistence; the router keeps its
// production defaults.
func bootFleet() (*fleet, error) {
	f := &fleet{replicas: map[string]string{}}
	var specs []string
	for i := 0; i < replicaCount; i++ {
		s, err := serve.Open(serve.Config{Workers: 1})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, s)
		url, err := f.listen(s.Handler(), &f.https)
		if err != nil {
			f.stop()
			return nil, err
		}
		name := fmt.Sprintf("replica-%d", i)
		f.replicas[name] = url
		f.names = append(f.names, name)
		specs = append(specs, name+"="+url)
	}
	rt, err := router.New(router.Config{Replicas: specs})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.rt = rt
	var rhs []*http.Server
	if f.base, err = f.listen(rt.Handler(), &rhs); err != nil {
		f.stop()
		return nil, err
	}
	f.routerHS = rhs[0]
	return f, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler, into *[]*http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	*into = append(*into, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts the router down, then the replicas, and waits for every
// serving goroutine to exit.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if f.routerHS != nil {
		_ = f.routerHS.Shutdown(ctx)
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, hs := range f.https {
		_ = hs.Shutdown(ctx)
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
}

// home returns the base URL of the replica that owns fingerprint.
func (f *fleet) home(fingerprint string) string { return f.replicas[f.rt.Home(fingerprint)] }

// counters sums the replicas' serve counters.
func (f *fleet) counters() (hits, misses, collapsed, rejected int64) {
	for _, s := range f.servers {
		st := s.Snapshot()
		hits += st.Cache.Hits
		misses += st.Cache.Misses
		collapsed += st.Cache.Collapsed
		rejected += st.Queue.Rejected
	}
	return
}

// newClient returns an HTTP client holding one connection to any one
// host: every workload sends one request at a time.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// post sends body and returns the status, the response body, and the
// time from sending to the first response byte.
func post(c *http.Client, url string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	ttfb := time.Since(start)
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, ttfb, err
}

// warmUp calibrates every machine once through the router and opens
// the client->router and router->replica connections. It sends only
// rate-table listings, which no workload asks for, so nothing the
// measured phase sends is cached by it.
func (f *fleet) warmUp(c *http.Client) error {
	homes := map[string]bool{}
	send := func(q query.EvalRequest) error {
		body, _ := json.Marshal(q) // plain struct
		code, resp, _, err := post(c, f.base+"/v1/eval", body)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("warm-up %s: HTTP %d: %s", body, code, resp)
		}
		homes[f.rt.Home(q.Fingerprint())] = true
		return nil
	}
	for _, m := range warmMachines {
		if err := send(query.EvalRequest{Machine: m, Rates: "calibrated", List: true}); err != nil {
			return err
		}
	}
	for i := 0; len(homes) < replicaCount; i++ {
		if i == 64 {
			return errors.New("warm-up reached only some replicas")
		}
		if err := send(query.EvalRequest{Machine: warmMachines[i%2], List: true, Congestion: float64(2 + i)}); err != nil {
			return err
		}
	}
	return nil
}

// setUp boots a fleet and warms it, returning the fleet, a client and
// the time both took.
func setUp() (*fleet, *http.Client, time.Duration, error) {
	start := time.Now()
	f, err := bootFleet()
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient()
	if err := f.warmUp(c); err != nil {
		f.stop()
		return nil, nil, 0, err
	}
	return f, c, time.Since(start), nil
}
