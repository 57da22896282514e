package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/racecheck"
)

// loopReader replays a byte string forever, a whole copy at most per Read.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	if l.off += n; l.off == len(l.data) {
		l.off = 0
	}
	return n, nil
}

func stream(msgs ...Message) []byte {
	var b []byte
	for _, m := range msgs {
		b = append(b, Marshal(m)...)
	}
	return b
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
}

// The allocation pins (run without -race by `make check` and CI): what the
// serving path and its clients pay the allocator per message.

func TestAllocsDecoderQuery(t *testing.T) {
	skipUnderRace(t)
	dec := NewDecoder(&loopReader{data: stream(
		&Query{ID: 1, Req: policy.Request{Src: 1, Dst: 9}},
		&Query{ID: 2, Req: policy.Request{Src: 9, Dst: 1, QOS: 1}},
	)})
	var sum uint64
	if n := testing.AllocsPerRun(1000, func() {
		m, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		sum += m.(*Query).ID
	}); n != 0 {
		t.Errorf("Decoder.Next on a Query: %v allocs/op, want 0", n)
	}
	if sum == 0 {
		t.Error("decoder returned empty queries")
	}
}

func TestAllocsWriteMessageBuffered(t *testing.T) {
	skipUnderRace(t)
	bw := bufio.NewWriter(io.Discard)
	rep := &QueryReply{ID: 1, Found: true, Path: ad.Path{1, 4, 9}}
	if n := testing.AllocsPerRun(1000, func() {
		if err := WriteMessage(bw, rep); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteMessage into a *bufio.Writer: %v allocs/op, want 0", n)
	}
}

func TestAllocsReadMessageBuffered(t *testing.T) {
	skipUnderRace(t)
	// The returned message and its one variable-length field, decoded with
	// one allocation: nothing for the frame, nothing for the cursor.
	for _, tc := range []struct {
		name string
		msgs []Message
	}{
		{"QueryReply", []Message{
			&QueryReply{ID: 1, Found: true, Path: ad.Path{1, 4, 9}},
			&QueryReply{ID: 2, Found: true, Path: ad.Path{1, 2, 3, 9}},
		}},
		{"NotPrimary", []Message{
			&NotPrimary{ID: 1, PrimaryID: 2, Addr: "127.0.0.1:4242"},
			&NotPrimary{ID: 2, PrimaryID: 2, Addr: "10.0.0.2:4242"},
		}},
	} {
		br := bufio.NewReader(&loopReader{data: stream(tc.msgs...)})
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := ReadMessage(br); err != nil {
				t.Fatal(err)
			}
		}); n != 2 {
			t.Errorf("ReadMessage of a %s from a *bufio.Reader: %v allocs/op, want 2", tc.name, n)
		}
	}
}

// chunkReader hands out its bytes at most n per Read, so a buffered reader
// over it sees frames arrive in pieces.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	if len(p) > c.n {
		p = p[:c.n]
	}
	n := copy(p, c.data)
	c.data = c.data[n:]
	return n, nil
}

// drainStream reads messages until an error and returns each re-marshalled
// (taken at once: a Decoder reuses its Query) and the terminal error's text.
func drainStream(next func() (Message, error)) (frames []string, end string) {
	for {
		m, err := next()
		if err != nil {
			return frames, err.Error()
		}
		frames = append(frames, string(Marshal(m)))
	}
}

// FuzzDecoderStream is the differential check on the two decode paths: an
// arbitrary byte stream read through the copy path (ReadMessage on a plain
// reader), the in-place path (ReadMessage on a *bufio.Reader fed in chunks)
// and a Decoder yields the same messages and ends with the same error.
func FuzzDecoderStream(f *testing.F) {
	// Every message kind back to back.
	all := stream(daemonMessages()...)
	f.Add(all, uint16(7))
	// 23-byte queries: the 179th straddles the 4096-byte buffer's edge.
	var queries []byte
	for i := 0; i < 400; i++ {
		queries = append(queries, Marshal(&Query{ID: uint64(i), Req: policy.Request{Src: ad.ID(i), Dst: 9}})...)
	}
	f.Add(queries, uint16(4096))
	f.Add(queries, uint16(1))
	// A 65 535-byte body, larger than the buffer, between two small frames.
	big := &Data{Mode: ModeHandle, Payload: bytes.Repeat([]byte{0xab}, MaxBody-8-2-11-2-2)}
	if len(Marshal(big)) != headerLen+MaxBody {
		f.Fatal("the large seed is not the largest frame")
	}
	f.Add(stream(&Drain{ID: 1}, big, &Drain{ID: 2}), uint16(1500))
	// Every truncation point of a short stream, and a bad version mid-stream.
	short := stream(
		&Query{ID: 1, Req: policy.Request{Src: 1, Dst: 9}},
		&QueryReply{ID: 1, Found: true, Path: ad.Path{1, 4, 9}},
		&NotPrimary{ID: 5, PrimaryID: 1, Addr: "127.0.0.1:4242"},
	)
	for cut := 0; cut <= len(short); cut++ {
		f.Add(short[:cut], uint16(3))
	}
	bad := append([]byte(nil), short...)
	bad[23] = 9
	f.Add(bad, uint16(64))
	for _, frame := range hostileCounts() {
		f.Add(append(Marshal(&Drain{ID: 1}), frame...), uint16(5))
	}

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		n := int(chunk)%8192 + 1
		plain := &chunkReader{data: data, n: n}
		copied, copiedEnd := drainStream(func() (Message, error) { return ReadMessage(plain) })

		br := bufio.NewReader(&chunkReader{data: data, n: n})
		inPlace, inPlaceEnd := drainStream(func() (Message, error) { return ReadMessage(br) })

		dec := NewDecoder(&chunkReader{data: data, n: n})
		decoded, decodedEnd := drainStream(dec.Next)

		for _, other := range []struct {
			name   string
			frames []string
			end    string
		}{{"ReadMessage(*bufio.Reader)", inPlace, inPlaceEnd}, {"Decoder", decoded, decodedEnd}} {
			if other.end != copiedEnd {
				t.Errorf("%s ended with %q, the copy path with %q", other.name, other.end, copiedEnd)
			}
			if len(other.frames) != len(copied) {
				t.Fatalf("%s read %d messages, the copy path %d", other.name, len(other.frames), len(copied))
			}
			for i := range copied {
				if other.frames[i] != copied[i] {
					t.Fatalf("%s message %d = % x, the copy path read % x", other.name, i, other.frames[i], copied[i])
				}
			}
		}
	})
}
