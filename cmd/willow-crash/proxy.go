package main

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"willow/internal/dist"
)

// Proxy link modes.
const (
	proxyPass  = int32(0) // forward bytes normally
	proxyCut   = int32(1) // drop every connection, refuse new ones
	proxyStall = int32(2) // accept and hold: the link is up, no bytes move
)

// proxy is a TCP forwarder the harness interposes on the replication
// link so it can partition (cut) and black-hole (stall) the stream
// without touching either daemon.
type proxy struct {
	ln     net.Listener
	target string
	mode   atomic.Int32

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// newProxy starts a forwarder to primaryBase (an http://host:port URL).
func newProxy(primaryBase string) (*proxy, error) {
	target := strings.TrimPrefix(primaryBase, "http://")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	go p.accept()
	return p, nil
}

func (p *proxy) url() string { return "http://" + p.ln.Addr().String() }

// setMode switches the link mode; entering cut also severs every live
// connection, so the follower sees a hard partition, not a quiet one.
func (p *proxy) setMode(mode int32) {
	p.mode.Store(mode)
	if mode == proxyCut {
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	}
}

func (p *proxy) close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
}

func (p *proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *proxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if p.mode.Load() == proxyCut {
			conn.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		if !p.track(conn) || !p.track(up) {
			conn.Close()
			up.Close()
			return
		}
		go p.pipe(up, conn)
		go p.pipe(conn, up)
	}
}

// pipe forwards one direction, honoring stall (hold bytes, keep the
// connection) and cut (sever).
func (p *proxy) pipe(dst, src net.Conn) {
	defer p.untrack(dst)
	defer p.untrack(src)
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			for p.mode.Load() == proxyStall {
				time.Sleep(2 * time.Millisecond)
			}
			if p.mode.Load() == proxyCut {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// disrupt runs rounds seeded partition/stall rounds on the link: cut
// rounds drop every connection and refuse new ones; stall rounds hold
// bytes silently (the nastier failure — the TCP session stays up while
// no data moves). The primary keeps ticking throughout, and the link is
// left passing.
func (p *proxy) disrupt(ctx context.Context, rounds int, src *dist.Source) {
	for i := 0; i < rounds; i++ {
		mode := proxyCut
		if src.Uint64()%2 == 0 {
			mode = proxyStall
		}
		p.setMode(mode)
		sleep(ctx, time.Duration(20+src.Uint64()%80)*time.Millisecond)
		p.setMode(proxyPass)
		sleep(ctx, time.Duration(10+src.Uint64()%40)*time.Millisecond)
	}
}

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
