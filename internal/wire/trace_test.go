package wire_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestTraceContextDisabledZeroAlloc pins the zero-cost-when-off contract
// of the trace extension: on a connection that did not negotiate
// tracing, GoMutateTraced allocates nothing beyond the base mutate path
// (which is itself zero-alloc at steady state) and puts not one extra
// byte on the wire — the frame is byte-identical to GoMutate's, modulo
// the request id.
func TestTraceContextDisabledZeroAlloc(t *testing.T) {
	addr, _ := startServer(t, serve.Config{}, wire.ServerConfig{})
	// Trace deliberately NOT set: the hello does not offer the capability.
	c := dialClient(t, addr, wire.ClientConfig{Conns: 1})
	if _, err := c.Create("s", line(8)); err != nil {
		t.Fatal(err)
	}
	if c.Traced() {
		t.Fatal("connection negotiated tracing without asking for it")
	}

	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 7, Flags: obs.TraceFlagSampled}
	ops := []serve.Mutation{serve.SetRadius(1, 0.5)}
	var ids []int64
	base := func() {
		p := c.GoMutate("s", ops)
		var err error
		ids, err = p.MutateIDs(ids[:0])
		if err != nil {
			panic("mutate failed")
		}
	}
	traced := func() {
		p := c.GoMutateTraced("s", ops, tc)
		var err error
		ids, err = p.MutateIDs(ids[:0])
		if err != nil {
			panic("mutate failed")
		}
	}
	base()
	traced() // reach steady-state buffer sizes
	// The base round trip has a small fixed alloc count (completion
	// wakeup); the trace-disabled path must add exactly zero on top.
	baseAllocs := testing.AllocsPerRun(200, base)
	tracedAllocs := testing.AllocsPerRun(200, traced)
	if extra := tracedAllocs - baseAllocs; extra != 0 {
		t.Errorf("GoMutateTraced on an untraced connection allocates %v more per op than GoMutate (%v vs %v), want 0 extra",
			extra, tracedAllocs, baseAllocs)
	}
}

// TestTraceDisabledNoWireBytes proxies the client through a recording
// tee and compares the raw mutate frames: with tracing unnegotiated,
// GoMutateTraced and GoMutate must emit identical bytes (the id field
// aside), with no FlagTrace and no trailing trace block.
func TestTraceDisabledNoWireBytes(t *testing.T) {
	addr, _ := startServer(t, serve.Config{}, wire.ServerConfig{})

	// A one-connection tee: record every client→server byte.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var captured bytes.Buffer
	go func() {
		cl, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", addr)
		if err != nil {
			cl.Close()
			return
		}
		go io.Copy(cl, up) // responses pass through untouched
		buf := make([]byte, 4096)
		for {
			n, err := cl.Read(buf)
			if n > 0 {
				mu.Lock()
				captured.Write(buf[:n])
				mu.Unlock()
				up.Write(buf[:n])
			}
			if err != nil {
				cl.Close()
				up.Close()
				return
			}
		}
	}()

	c := dialClient(t, ln.Addr().String(), wire.ClientConfig{Conns: 1})
	if _, err := c.Create("s", line(8)); err != nil {
		t.Fatal(err)
	}
	ops := []serve.Mutation{serve.SetRadius(1, 0.5)}
	if _, err := c.Mutate("s", ops); err != nil {
		t.Fatal(err)
	}
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), Flags: obs.TraceFlagSampled}
	if _, err := c.GoMutateTraced("s", ops, tc).MutateIDs(nil); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	stream := append([]byte(nil), captured.Bytes()...)
	mu.Unlock()

	// Walk the captured stream and keep the MsgMutate frames whole
	// (header + payload).
	var frames [][]byte
	r := wire.NewReader(bytes.NewReader(stream), 0)
	off := 0
	for {
		h, p, err := r.Next()
		if err != nil {
			break
		}
		flen := wire.HeaderSize + len(p)
		if h.Type == wire.MsgMutate {
			frames = append(frames, append([]byte(nil), stream[off:off+flen]...))
		}
		off += flen
	}
	if len(frames) != 2 {
		t.Fatalf("captured %d mutate frames, want 2", len(frames))
	}
	plain, traced := frames[0], frames[1]
	if traced[5]&wire.FlagTrace != 0 {
		t.Error("untraced connection emitted FlagTrace")
	}
	// Mask the request id (bytes 8..16) and require byte equality.
	for _, f := range frames {
		for i := 8; i < 16; i++ {
			f[i] = 0
		}
	}
	if !bytes.Equal(plain, traced) {
		t.Errorf("GoMutateTraced frame differs from GoMutate with tracing off:\n  plain:  %x\n  traced: %x", plain, traced)
	}
}

// syncBuf is a bytes.Buffer safe to fill from a proxy goroutine.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}

// TestWALBatchIsMutateFrameTail pins the one mutation codec: the WAL
// batch record a traced MsgMutate produces is a zero byte followed by
// the frame's payload after its session string — the same op records
// and the same trace block, whose span id the writer replaces with its
// own batch span.
func TestWALBatchIsMutateFrameTail(t *testing.T) {
	if !obs.Available {
		t.Skip("observability compiled out")
	}
	prev := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
	st, err := store.Open(store.Options{Dir: t.TempDir(), Sync: store.SyncAlways, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	addr, _ := startServer(t, serve.Config{Store: st}, wire.ServerConfig{})

	// A one-connection tee recording every client→server byte.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var sent syncBuf
	go func() {
		cl, err := ln.Accept()
		if err != nil {
			return
		}
		defer cl.Close()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer up.Close()
		go io.Copy(cl, up)
		io.Copy(up, io.TeeReader(cl, &sent))
	}()

	c := dialClient(t, ln.Addr().String(), wire.ClientConfig{Conns: 1, Trace: true})
	if _, err := c.Create("s", line(8)); err != nil {
		t.Fatal(err)
	}
	if !c.Traced() {
		t.Fatal("tracing not negotiated")
	}
	// No OpAdd: the server assigns add ids at enqueue, so an add's
	// logged node id differs from the one the client sent.
	ops := []serve.Mutation{serve.Move(1, 1.5, -0.25), serve.SetRadius(2, 1.0/3), serve.Remove(3), serve.AnnealStep(20, 9)}
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 7, Flags: obs.TraceFlagSampled}
	if _, err := c.GoMutateTraced("s", ops, tc).MutateIDs(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush("s"); err != nil {
		t.Fatal(err)
	}

	var tail []byte
	r := wire.NewReader(bytes.NewReader(sent.bytes()), 0)
	for {
		h, p, err := r.Next()
		if err != nil {
			break
		}
		if h.Type == wire.MsgMutate && h.Flags&wire.FlagTrace != 0 {
			_, rest, _ := wire.ReadString(p)
			tail = append([]byte(nil), rest...)
		}
	}
	var wal [][]byte
	if _, _, err := st.ReadFrom(store.Cursor{}, 0, func(rec store.Record) error {
		if rec.Kind == store.RecordBatch {
			wal = append(wal, append([]byte(nil), rec.Payload...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tail == nil || len(wal) != 1 {
		t.Fatalf("captured frame tail %x and %d batch records, want one of each", tail, len(wal))
	}
	got := wal[0]
	if len(got) != 1+len(tail) || got[0] != 0 {
		t.Fatalf("WAL payload %x is not 0x00 + the %d-byte frame tail", got, len(tail))
	}
	stamp, _, err := serve.DecodeTraceContext(got[len(got)-serve.TraceBlockSize:])
	if err != nil || stamp.SpanID == 0 || stamp.SpanID == tc.SpanID {
		t.Fatalf("WAL trace block %+v (%v): want the writer's own batch span", stamp, err)
	}
	want := append([]byte{0}, tail...)
	binary.LittleEndian.PutUint64(want[len(want)-serve.TraceBlockSize+8:], stamp.SpanID)
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL payload differs from the MsgMutate tail:\n got  %x\n want %x", got, want)
	}
}
