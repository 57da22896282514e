package wire

import (
	"bufio"
	"fmt"
	"io"
)

// Framing on a byte stream. A frame that fits a buffered reader's buffer is
// decoded where it lies — one read syscall fills the buffer with a whole
// pipelined burst and no frame is copied before it is parsed. An unbuffered
// reader, or a frame larger than the buffer, takes the copy path: header,
// then body, into a fresh slice. Which path runs is decided by what the code
// sees (the reader's type, the length in the header), never by a setting,
// and FuzzDecoderStream holds the two to the same messages and errors.

// ReadMessage reads exactly one framed message from r: the fixed header,
// then the body the header's length field declares. A clean EOF before any
// header byte returns io.EOF; EOF mid-message returns io.ErrUnexpectedEOF.
// Sessions use it to delimit messages on a byte stream. The message shares
// no memory with r, whether or not r is a *bufio.Reader.
func ReadMessage(r io.Reader) (Message, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		frame, err := copyFrame(r)
		if err != nil {
			return nil, err
		}
		return Unmarshal(frame)
	}
	frame, held, err := peekFrame(br)
	if err != nil {
		return nil, err
	}
	m, err := Unmarshal(frame)
	br.Discard(held) // cannot fail: held bytes are buffered
	return m, err
}

// copyFrame is the copy path: it reads one frame from r into a new slice.
func copyFrame(r io.Reader) ([]byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF before the first byte, io.ErrUnexpectedEOF after
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[0])
	}
	n := int(hdr[2])<<8 | int(hdr[3])
	frame := make([]byte, headerLen+n)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[headerLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return frame, nil
}

// peekFrame returns the next frame of br with its version checked and its
// length equal to what its header declares. A frame that fits br's buffer is
// returned in place, unconsumed: held is its length, the caller Discards
// that many bytes once it has decoded, and the slice dies with the next read
// of br. A larger frame comes from the copy path, consumed, with held 0.
func peekFrame(br *bufio.Reader) (frame []byte, held int, err error) {
	hdr, err := br.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	if hdr[0] != Version {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[0])
	}
	n := headerLen + (int(hdr[2])<<8 | int(hdr[3]))
	if n > br.Size() {
		frame, err = copyFrame(br)
		return frame, 0, err
	}
	if frame, err = br.Peek(n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	return frame, n, nil
}

// Decoder reads the request stream of one session through a buffer of its
// own. It differs from ReadMessage on a *bufio.Reader in one way: a Query —
// the request a route server exists to answer — is decoded into a value the
// Decoder reuses, so the cached-answer path allocates nothing.
type Decoder struct {
	br    *bufio.Reader
	query Query
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReader(r)}
}

// Next returns the next message of the stream, with ReadMessage's errors.
// A *Query is valid only until the following call to Next: the caller
// copies out what it keeps. Every other message is the caller's own.
func (d *Decoder) Next() (Message, error) {
	frame, held, err := peekFrame(d.br)
	if err != nil {
		return nil, err
	}
	var m Message
	if MsgType(frame[1]) == TypeQuery {
		if err = d.query.code(codec{buf: frame[headerLen:], dec: true}).done(); err == nil {
			m = &d.query
		}
	} else {
		m, err = Unmarshal(frame)
	}
	d.br.Discard(held)
	return m, err
}

// WriteMessage frames and writes one message to w. Into a *bufio.Writer the
// frame is encoded straight into the writer's free space.
func WriteMessage(w io.Writer, m Message) error {
	var dst []byte
	if bw, ok := w.(*bufio.Writer); ok {
		dst = bw.AvailableBuffer()
	} else {
		dst = make([]byte, 0, headerLen+64)
	}
	frame, err := AppendMessage(dst, m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}
