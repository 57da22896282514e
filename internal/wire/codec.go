package wire

import (
	"encoding/binary"

	"repro/internal/ad"
	"repro/internal/policy"
)

// codec is one walk over a frame's fields in wire order. Encoding, each
// helper appends its field to buf; decoding (dec true), it takes the field's
// bytes from buf at the cursor off and stores what they hold through the
// field's pointer. A helper only reads its field when encoding: a message
// may be marshalled from several goroutines at once.
//
// A body is at most 65535 bytes, so off fits an int32, and four fields in 32
// bytes keep a codec a value the compiler holds in registers across the
// interface call that passes it in and out.
type codec struct {
	buf       []byte
	off       int32
	dec, fail bool
}

// done reports how decoding ended: ErrTruncated when the body ran out, or
// ErrTrailing when the walk stopped short of its end.
func (c codec) done() error {
	if c.fail {
		return ErrTruncated
	}
	if int(c.off) != len(c.buf) {
		return ErrTrailing
	}
	return nil
}

// take steps the decoding cursor past the next n bytes and returns them.
// When the body is short of them it returns nil and fails the walk, which
// drops buf and so turns every later step into a no-op: a walk needs no
// per-field error checks.
func (c *codec) take(n int) []byte {
	end := int(c.off) + n
	if end > len(c.buf) {
		c.fail, c.buf = true, nil
		return nil
	}
	b := c.buf[c.off:end:end]
	c.off = int32(end)
	return b
}

func (c *codec) u8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *codec) u16(v *uint16) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.BigEndian.Uint16(b)
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

func (c *codec) id(v *ad.ID) { c.u32((*uint32)(v)) }

// flag codes v as one byte, 1 for true; any other byte decodes to false.
func (c *codec) flag(v *bool) {
	b := uint8(0)
	if *v {
		b = 1
	}
	c.u8(&b)
	if c.dec {
		*v = b == 1
	}
}

// count codes a 16-bit element count, n when encoding, and returns it. An
// encoded count past 65535 wraps, but its elements then overflow the body
// too, which AppendMessage refuses. Decoding fails unless that many elements
// of at least min bytes each can still follow, so a walk sizes its slices by
// the bytes actually present, not by a number off the wire.
func (c *codec) count(n, min int) int {
	v := uint16(n)
	c.u16(&v)
	if !c.dec {
		return n
	}
	if int(v)*min > len(c.buf)-int(c.off) {
		c.fail, c.buf = true, nil
		return 0
	}
	return int(v)
}

// list codes the length of *s, elements of at least min bytes each. Decoding
// makes *s that long for the walk to fill in place, and the caller then codes
// each element. Into a fresh message, an empty list decodes to nil and a
// non-empty one to a new slice; UnmarshalInto's reused message keeps its
// slices' backing arrays wherever they are long enough.
func list[T any](c *codec, s *[]T, min int) {
	n := c.count(len(*s), min)
	if c.dec {
		if n > cap(*s) {
			*s = make([]T, n)
		} else {
			*s = (*s)[:n]
		}
	}
}

// str codes a string as a 16-bit byte length followed by the raw bytes.
func (c *codec) str(s *string) {
	n := c.count(len(*s), 1)
	if c.dec {
		*s = string(c.take(n))
	} else {
		c.buf = append(c.buf, *s...)
	}
}

// raw codes the bytes of b, which the caller has sized, as they are.
func (c *codec) raw(b []byte) {
	if c.dec {
		copy(b, c.take(len(b)))
	} else {
		c.buf = append(c.buf, b...)
	}
}

// ADSet encoding: 1 flag byte (1 = universal), then for explicit sets a
// 16-bit count followed by 32-bit AD IDs in ascending order.
func (c *codec) adSet(s *policy.ADSet) {
	all := s.IsUniversal()
	c.flag(&all)
	if all {
		if c.dec {
			*s = policy.Universal()
		}
		return
	}
	n := c.count(s.Size(), 4)
	if !c.dec {
		s.Each(func(id ad.ID) {
			c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(id))
		})
		return
	}
	// SetOf copies what it is given, so a set of up to 256 members (a
	// policy attribute names a share of an internet's ADs) is read into a
	// buffer on the stack and the set's own slice is the only allocation.
	var buf [256]ad.ID
	ids := buf[:]
	if n > len(buf) {
		ids = make([]ad.ID, n)
	}
	ids = ids[:n]
	c.ids(ids)
	*s = policy.SetOf(ids...)
}

// Policy Term encoding: advertiser, serial, the four AD sets, QOS and UCI
// class masks, hour window, and cost.

// minTermLen is the encoded size of a term whose four AD sets are universal.
const minTermLen = 4 + 4 + 4*1 + 4 + 4 + 2 + 4

func (c *codec) term(t *policy.Term) {
	c.id(&t.Advertiser)
	c.u32(&t.Serial)
	c.adSet(&t.Sources)
	c.adSet(&t.Dests)
	c.adSet(&t.PrevADs)
	c.adSet(&t.NextADs)
	c.u32((*uint32)(&t.QOS))
	c.u32((*uint32)(&t.UCI))
	c.u8(&t.Hours.Start)
	c.u8(&t.Hours.End)
	c.u32(&t.Cost)
}

// Policy term key encoding: advertiser, serial.
func (c *codec) key(k *policy.Key) {
	c.id(&k.Advertiser)
	c.u32(&k.Serial)
}

// Request encoding: src, dst, qos, uci, hour.
func (c *codec) request(req *policy.Request) {
	c.id(&req.Src)
	c.id(&req.Dst)
	c.u8((*uint8)(&req.QOS))
	c.u8((*uint8)(&req.UCI))
	c.u8(&req.Hour)
}

// Path encoding: 16-bit hop count followed by 32-bit AD IDs.
func (c *codec) path(p *ad.Path) {
	list(c, (*[]ad.ID)(p), 4)
	c.ids(*p)
}

// ids codes a run of 32-bit AD IDs, all of whose bytes it takes at once.
func (c *codec) ids(ids []ad.ID) {
	if !c.dec {
		for _, id := range ids {
			c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(id))
		}
		return
	}
	if b := c.take(4 * len(ids)); b != nil {
		for i := range ids {
			ids[i] = ad.ID(binary.BigEndian.Uint32(b[4*i:]))
		}
	}
}
