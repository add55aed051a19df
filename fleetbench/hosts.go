package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"autodbaas/internal/shard"
)

// shardMethods are the Shard calls the ledger times, in report order.
var shardMethods = []string{"Step", "Add", "Remove", "Resize", "Export", "Import", "Checkpoint"}

// callStats accumulates wall time per shard method, shared by every
// timed host of one service.
type callStats struct {
	mu sync.Mutex
	ns map[string]int64
}

func newCallStats() *callStats { return &callStats{ns: make(map[string]int64)} }

func (c *callStats) add(method string, d time.Duration) {
	c.mu.Lock()
	c.ns[method] += int64(d)
	c.mu.Unlock()
}

// snapshot copies the per-method totals.
func (c *callStats) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := make(map[string]int64, len(c.ns))
	for k, v := range c.ns {
		ns[k] = v
	}
	return ns
}

// timedShard decorates a shard host handed to fleet.Config.ShardHosts:
// each call the coordinator makes is timed from outside and, on a
// traced run, recorded as a span under the benchmark-side span that
// caused it. Calls it does not time pass through the embedded host.
type timedShard struct {
	shard.Shard
	stats *callStats
	tr    *tracer // nil on untraced runs
}

func (t *timedShard) time(method string, fn func() error) error {
	sp := t.tr.startChild("shard." + method)
	start := time.Now()
	err := fn()
	t.stats.add(method, time.Since(start))
	sp.end()
	return err
}

func (t *timedShard) AddInstance(spec shard.InstanceSpec) error {
	return t.time("Add", func() error { return t.Shard.AddInstance(spec) })
}

func (t *timedShard) RemoveInstance(id string) error {
	return t.time("Remove", func() error { return t.Shard.RemoveInstance(id) })
}

func (t *timedShard) ResizeInstance(id, plan string, seed int64, agentCfg shard.AgentConfig) error {
	return t.time("Resize", func() error { return t.Shard.ResizeInstance(id, plan, seed, agentCfg) })
}

func (t *timedShard) Step(dur time.Duration) (res shard.StepResult, err error) {
	err = t.time("Step", func() error { res, err = t.Shard.Step(dur); return err })
	return res, err
}

func (t *timedShard) Checkpoint() (snap []byte, err error) {
	err = t.time("Checkpoint", func() error { snap, err = t.Shard.Checkpoint(); return err })
	return snap, err
}

func (t *timedShard) ExportInstance(id string) (exp shard.InstanceExport, err error) {
	err = t.time("Export", func() error { exp, err = t.Shard.ExportInstance(id); return err })
	return exp, err
}

func (t *timedShard) ImportInstance(exp shard.InstanceExport) error {
	return t.time("Import", func() error { return t.Shard.ImportInstance(exp) })
}

// countingListener counts the bytes a shard server reads (requests in)
// and writes (responses out) on every connection it accepts.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, in: l.in, out: l.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// shardFarm is the set of in-process shard servers behind one sharded
// service: each a shard.Server on its own unix socket, reached through
// shard.Dial exactly as `autodbaas -serve -shard-map` reaches workers.
type shardFarm struct {
	dir       string
	listeners []net.Listener
	done      sync.WaitGroup
	in, out   atomic.Int64
	stats     *callStats
}

// startFarm serves one shard server per config and returns the dialled,
// initialized and timed hosts in config order.
func startFarm(dir string, cfgs []shard.Config, tr *tracer) (*shardFarm, []shard.Shard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	f := &shardFarm{dir: dir, stats: newCallStats()}
	var hosts []shard.Shard
	fail := func(err error) (*shardFarm, []shard.Shard, error) {
		for _, h := range hosts {
			h.Close()
		}
		f.stop()
		return nil, nil, err
	}
	for i, cfg := range cfgs {
		sock := filepath.Join(dir, fmt.Sprintf("%d.sock", i))
		_ = os.Remove(sock) // a stale socket from a killed run would block Listen
		l, err := net.Listen("unix", sock)
		if err != nil {
			return fail(fmt.Errorf("listen %s: %w", sock, err))
		}
		f.listeners = append(f.listeners, l)
		srv := shard.NewServer()
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			if err := srv.Serve(countingListener{Listener: l, in: &f.in, out: &f.out}); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "fleetbench: shard server %s: %v\n", sock, err)
			}
		}()
		r, err := shard.Dial("unix", sock)
		if err != nil {
			return fail(err)
		}
		if err := r.Init(cfg); err != nil {
			r.Close()
			return fail(fmt.Errorf("init shard %q: %w", cfg.Name, err))
		}
		hosts = append(hosts, &timedShard{Shard: r, stats: f.stats, tr: tr})
	}
	return f, hosts, nil
}

// stop closes the listeners and waits for the accept loops to return.
// Connection handlers end when the service closes its client side.
func (f *shardFarm) stop() {
	for _, l := range f.listeners {
		l.Close()
	}
	f.done.Wait()
	_ = os.RemoveAll(f.dir)
}
