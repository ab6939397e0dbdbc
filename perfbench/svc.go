package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/client"
	"weihl83/internal/service"
	"weihl83/internal/value"
)

const svcTenant = "bench"

// svcBank is svc-zipf: an in-process service.Server on a loopback
// listener, driven over real TCP by one client.Client per caller, each
// holding one connection. A traced instance wraps the server's handler,
// each client's transport, and each client call.
type svcBank struct {
	srv     *service.Server
	hs      *http.Server
	served  chan error
	clients []*client.Client
	conns   []*http.Transport
	runSpan []int32 // each caller's open client.run span, for its transport
	tr      *tracer
	n       int
}

func buildSvc(w *workload) func(context.Context, *env, *tracer, *result) (instance, error) {
	return func(ctx context.Context, e *env, tr *tracer, r *result) (instance, error) {
		b := &svcBank{srv: service.New(service.Options{}), tr: tr, n: w.accounts, served: make(chan error, 1)}
		var h http.Handler = b.srv.Handler()
		if tr != nil {
			h = tracedHandler{inner: h, tr: tr}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		b.hs = &http.Server{Handler: h}
		go func() { b.served <- b.hs.Serve(ln) }()
		base := "http://" + ln.Addr().String()
		b.runSpan = make([]int32, callers)
		for i := range b.runSpan {
			b.runSpan[i] = noSpan
			conn := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			var rt http.RoundTripper = conn
			if tr != nil {
				rt = tracedTransport{inner: conn, tr: tr, run: &b.runSpan[i]}
			}
			b.conns = append(b.conns, conn)
			b.clients = append(b.clients, client.New(base, client.Options{Tenant: svcTenant, HTTPClient: &http.Client{Transport: rt}}))
		}
		if err := b.provision(ctx); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
}

// provision creates the tenant (dynamic atomicity, cascade guard, no
// write-ahead log) and its accounts over HTTP, and seeds the balances.
func (b *svcBank) provision(ctx context.Context) error {
	cl := b.clients[0]
	if err := cl.EnsureTenant(ctx, service.TenantConfig{Property: "dynamic", Guard: "cascade"}); err != nil {
		return err
	}
	for i := 0; i < b.n; i++ {
		if err := cl.CreateObject(ctx, svcAccount(i), "account", "cascade"); err != nil {
			return err
		}
	}
	for lo := 0; lo < b.n; lo += 64 {
		var ops []service.OpRequest
		for i := lo; i < min(lo+64, b.n); i++ {
			ops = append(ops, service.OpRequest{Object: svcAccount(i), Op: adts.OpDeposit, Arg: value.Int(seedBalance)})
		}
		if _, err := cl.Run(ctx, ops); err != nil {
			return fmt.Errorf("seeding accounts: %w", err)
		}
	}
	return nil
}

func svcAccount(i int) string { return "acct" + strconv.Itoa(i) }

func (b *svcBank) exec(ctx context.Context, c *caller, o op) error {
	cl := b.clients[c.idx]
	if b.tr != nil && c.measuring && b.tr.sampled(c.seq) {
		s := b.tr.begin(spClientRun, noSpan, spanID(c))
		b.runSpan[c.idx] = s
		defer func() {
			b.tr.end(s)
			b.runSpan[c.idx] = noSpan
		}()
	}
	switch o.kind {
	case opTransfer:
		resp, err := cl.Run(ctx, []service.OpRequest{
			{Object: svcAccount(o.a), Op: adts.OpWithdraw, Arg: value.Int(o.amt)},
			{Object: svcAccount(o.b), Op: adts.OpDeposit, Arg: value.Int(o.amt)},
		})
		if err == nil && (len(resp.Results) == 0 || resp.Results[0] == adts.InsufficientFunds) {
			// The transfer committed a deposit without its withdrawal.
			return errRefused
		}
		return err
	case opRead:
		_, err := cl.RunReadOnly(ctx, []service.OpRequest{{Object: svcAccount(o.a), Op: adts.OpBalance}})
		return err
	}
	return fmt.Errorf("svc-zipf has no operation kind %d", o.kind)
}

// finish checks svc-zipf's gate: one read-only transaction over every
// account sees the seeded total, each balance as the committed transfers
// imply.
func (b *svcBank) finish(ctx context.Context, l *ledger, _ *result) error {
	ops := make([]service.OpRequest, b.n)
	for i := range ops {
		ops[i] = service.OpRequest{Object: svcAccount(i), Op: adts.OpBalance}
	}
	resp, err := b.clients[0].RunReadOnly(ctx, ops)
	if err != nil {
		return fmt.Errorf("final audit: %w", err)
	}
	if len(resp.Results) != b.n {
		return fmt.Errorf("final audit returned %d balances, want %d", len(resp.Results), b.n)
	}
	got := make([]int64, b.n)
	for i, v := range resp.Results {
		n, ok := v.AsInt()
		if !ok {
			return fmt.Errorf("balance of %s is not an integer: %v", svcAccount(i), v)
		}
		got[i] = n
	}
	return checkLedger(l, got)
}

// close drains the service, stops the listener and waits for the server
// goroutine to return.
func (b *svcBank) close() {
	b.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		b.hs.Close()
	}
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serving: %v\n", err)
	}
	for _, c := range b.conns {
		c.CloseIdleConnections()
	}
}
