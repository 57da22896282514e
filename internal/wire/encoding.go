package wire

import (
	"repro/internal/ad"
	"repro/internal/policy"
)

// ADSet encoding: 1 flag byte (1 = universal), then for explicit sets a
// 16-bit count followed by 32-bit AD IDs in ascending order.

func appendADSet(dst []byte, s policy.ADSet) []byte {
	if s.IsUniversal() {
		return append(dst, 1)
	}
	dst = append(dst, 0)
	members := s.Members()
	dst = appendU16(dst, uint16(len(members)))
	for _, id := range members {
		dst = appendU32(dst, uint32(id))
	}
	return dst
}

func readADSet(r *reader) policy.ADSet {
	if r.u8() == 1 {
		return policy.Universal()
	}
	n := r.count(4)
	ids := make([]ad.ID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, ad.ID(r.u32()))
	}
	return policy.SetOf(ids...)
}

// adSetWireLen returns the encoded size of s, used by header-overhead
// accounting in experiments.
func adSetWireLen(s policy.ADSet) int {
	if s.IsUniversal() {
		return 1
	}
	return 1 + 2 + 4*s.Size()
}

// Policy Term encoding: advertiser, serial, the four AD sets, QOS and UCI
// class masks, hour window, and cost.

// minTermLen is the encoded size of a term whose four AD sets are universal.
const minTermLen = 4 + 4 + 4*1 + 4 + 4 + 2 + 4

func appendTerm(dst []byte, t policy.Term) []byte {
	dst = appendU32(dst, uint32(t.Advertiser))
	dst = appendU32(dst, t.Serial)
	dst = appendADSet(dst, t.Sources)
	dst = appendADSet(dst, t.Dests)
	dst = appendADSet(dst, t.PrevADs)
	dst = appendADSet(dst, t.NextADs)
	dst = appendU32(dst, uint32(t.QOS))
	dst = appendU32(dst, uint32(t.UCI))
	dst = append(dst, t.Hours.Start, t.Hours.End)
	dst = appendU32(dst, t.Cost)
	return dst
}

func readTerm(r *reader) policy.Term {
	var t policy.Term
	t.Advertiser = ad.ID(r.u32())
	t.Serial = r.u32()
	t.Sources = readADSet(r)
	t.Dests = readADSet(r)
	t.PrevADs = readADSet(r)
	t.NextADs = readADSet(r)
	t.QOS = policy.ClassSet(r.u32())
	t.UCI = policy.ClassSet(r.u32())
	t.Hours = policy.HourWindow{Start: r.u8(), End: r.u8()}
	t.Cost = r.u32()
	return t
}

// TermWireLen returns the encoded size of a term in bytes. Experiment E8
// uses it to report LSDB growth under fine-grained policy.
func TermWireLen(t policy.Term) int {
	return 4 + 4 + adSetWireLen(t.Sources) + adSetWireLen(t.Dests) +
		adSetWireLen(t.PrevADs) + adSetWireLen(t.NextADs) + 4 + 4 + 2 + 4
}

// Request encoding: src, dst, qos, uci, hour.

func appendRequest(dst []byte, req policy.Request) []byte {
	dst = appendU32(dst, uint32(req.Src))
	dst = appendU32(dst, uint32(req.Dst))
	return append(dst, uint8(req.QOS), uint8(req.UCI), req.Hour)
}

func readRequest(r *reader) policy.Request {
	var req policy.Request
	req.Src = ad.ID(r.u32())
	req.Dst = ad.ID(r.u32())
	req.QOS = policy.QOS(r.u8())
	req.UCI = policy.UCI(r.u8())
	req.Hour = r.u8()
	return req
}

// Path encoding: 16-bit hop count followed by 32-bit AD IDs.

func appendPath(dst []byte, p ad.Path) []byte {
	dst = appendU16(dst, uint16(len(p)))
	for _, id := range p {
		dst = appendU32(dst, uint32(id))
	}
	return dst
}

func readPath(r *reader) ad.Path {
	n := r.count(4)
	p := make(ad.Path, 0, n)
	for i := 0; i < n; i++ {
		p = append(p, ad.ID(r.u32()))
	}
	return p
}
