// Snapshot support for the controller: deep-copy cloning for warm-start
// sweeps and an exported, serializable state for machine checkpoints.
//
// The aliasing rules (see DESIGN.md, "Snapshot contract"): a clone shares
// nothing mutable with its parent. Per-bank queues are slices of value
// structs and are copied; the in-flight op is a fresh pointer; Stats is
// deep-copied (WearByBank slice, WritesByRatio map). Params, Config and the
// write-class table are pure value types and copy by assignment.
package nvm

import (
	"fmt"

	"mct/internal/config"
)

// Clone returns a deep copy of s: mutating the clone's WearByBank or
// WritesByRatio never perturbs the original.
func (s Stats) Clone() Stats {
	n := s
	n.WearByBank = append([]float64(nil), s.WearByBank...)
	if s.WritesByRatio != nil {
		n.WritesByRatio = make(map[float64]uint64, len(s.WritesByRatio))
		for k, v := range s.WritesByRatio {
			n.WritesByRatio[k] = v
		}
	}
	return n
}

func (b bankState) clone() bankState {
	n := b // op is held by value and copies with the struct
	n.writes = append([]writeReq(nil), b.writes...)
	n.eager = append([]writeReq(nil), b.eager...)
	return n
}

// Clone returns an independent deep copy of the controller at its current
// simulated time: banks (queues, in-flight ops, row buffers), write-power
// tokens, drain/wear-quota state and statistics. Advancing one controller
// never perturbs the other.
func (c *Controller) Clone() *Controller {
	n := *c
	n.banks = make([]bankState, len(c.banks))
	for i := range c.banks {
		n.banks[i] = c.banks[i].clone()
	}
	n.tokens = append([]uint64(nil), c.tokens...)
	n.st = c.st.Clone()
	return &n
}

// WriteReqState is the serializable form of one queued write.
type WriteReqState struct {
	Addr    uint64
	Enq     uint64
	Cancels int
	Eager   bool
}

// InflightState is the serializable form of a write pulse occupying a bank.
type InflightState struct {
	Req         WriteReqState
	PulseStart  uint64
	Done        uint64
	Ratio       float64
	Cancellable bool
	Token       int
}

// BankSnapshot is the serializable state of one bank.
type BankSnapshot struct {
	FreeAt   uint64
	Op       *InflightState
	Writes   []WriteReqState
	Eager    []WriteReqState
	OpenRow  uint64
	RowValid bool
}

// Snapshot is the complete serializable state of a Controller.
type Snapshot struct {
	Params Params
	Config config.Config

	Banks     []BankSnapshot
	BusFreeAt uint64
	Tokens    []uint64
	Now       uint64

	WriteQLen int
	EagerQLen int
	DrainMode bool

	Forced    bool
	NextSlice uint64

	Stats Stats
}

func reqToState(r writeReq) WriteReqState {
	return WriteReqState{Addr: r.addr, Enq: r.enq, Cancels: r.cancels, Eager: r.eager}
}

func reqFromState(s WriteReqState) writeReq {
	return writeReq{addr: s.Addr, enq: s.Enq, cancels: s.Cancels, eager: s.Eager}
}

func reqsToState(rs []writeReq) []WriteReqState {
	if rs == nil {
		return nil
	}
	out := make([]WriteReqState, len(rs))
	for i, r := range rs {
		out[i] = reqToState(r)
	}
	return out
}

func reqsFromState(ss []WriteReqState) []writeReq {
	if ss == nil {
		return nil
	}
	out := make([]writeReq, len(ss))
	for i, s := range ss {
		out[i] = reqFromState(s)
	}
	return out
}

// Snapshot captures the controller's complete state for checkpointing.
func (c *Controller) Snapshot() Snapshot {
	banks := make([]BankSnapshot, len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		bs := BankSnapshot{
			FreeAt:   b.freeAt,
			Writes:   reqsToState(b.writes),
			Eager:    reqsToState(b.eager),
			OpenRow:  b.openRow,
			RowValid: b.rowValid,
		}
		if b.opValid {
			bs.Op = &InflightState{
				Req:         reqToState(b.op.req),
				PulseStart:  b.op.pulseStart,
				Done:        b.op.done,
				Ratio:       b.op.ratio,
				Cancellable: b.op.cancellable,
				Token:       b.op.token,
			}
		}
		banks[i] = bs
	}
	return Snapshot{
		Params:    c.p,
		Config:    c.cfg,
		Banks:     banks,
		BusFreeAt: c.busFreeAt,
		Tokens:    append([]uint64(nil), c.tokens...),
		Now:       c.now,
		WriteQLen: c.writeQLen,
		EagerQLen: c.eagerQLen,
		DrainMode: c.drainMode,
		Forced:    c.forced,
		NextSlice: c.nextSlice,
		Stats:     withClassCounts(c.st, &c.classes),
	}
}

// FromSnapshot rebuilds a controller from a state captured with Snapshot.
// The rebuilt controller continues the identical simulation. It rejects a
// snapshot that breaks a cross-field invariant the controller relies on —
// queue totals that disagree with the per-bank queues, an in-flight op
// holding a token that does not exist — so a corrupt checkpoint fails here
// instead of panicking later in the step loop.
func FromSnapshot(s Snapshot) (*Controller, error) {
	c, err := New(s.Config, s.Params)
	if err != nil {
		return nil, err
	}
	if len(s.Banks) != s.Params.Banks {
		return nil, fmt.Errorf("nvm: snapshot has %d banks, params say %d", len(s.Banks), s.Params.Banks)
	}
	if len(s.Tokens) != s.Params.MaxConcurrentWrites {
		return nil, fmt.Errorf("nvm: snapshot has %d tokens, params say %d", len(s.Tokens), s.Params.MaxConcurrentWrites)
	}
	if len(s.Stats.WearByBank) != s.Params.Banks {
		return nil, fmt.Errorf("nvm: snapshot wear vector has %d banks, params say %d", len(s.Stats.WearByBank), s.Params.Banks)
	}
	writeQLen, eagerQLen := 0, 0
	for i := range s.Banks {
		bs := &s.Banks[i]
		writeQLen += len(bs.Writes)
		eagerQLen += len(bs.Eager)
		if bs.Op != nil && (bs.Op.Token < 0 || bs.Op.Token >= len(s.Tokens)) {
			return nil, fmt.Errorf("nvm: snapshot bank %d op holds token %d, params have %d", i, bs.Op.Token, len(s.Tokens))
		}
		b := bankState{
			freeAt:   bs.FreeAt,
			writes:   reqsFromState(bs.Writes),
			eager:    reqsFromState(bs.Eager),
			openRow:  bs.OpenRow,
			rowValid: bs.RowValid,
		}
		if bs.Op != nil {
			b.op = inflight{
				req:         reqFromState(bs.Op.Req),
				pulseStart:  bs.Op.PulseStart,
				done:        bs.Op.Done,
				ratio:       bs.Op.Ratio,
				cancellable: bs.Op.Cancellable,
				token:       bs.Op.Token,
			}
			b.opValid = true
		}
		c.banks[i] = b
	}
	if s.WriteQLen != writeQLen || s.EagerQLen != eagerQLen {
		return nil, fmt.Errorf("nvm: snapshot queue lengths %d/%d disagree with the %d/%d queued bank writes",
			s.WriteQLen, s.EagerQLen, writeQLen, eagerQLen)
	}
	copy(c.tokens, s.Tokens)
	c.busFreeAt = s.BusFreeAt
	c.now = s.Now
	c.writeQLen = s.WriteQLen
	c.eagerQLen = s.EagerQLen
	c.drainMode = s.DrainMode
	c.forced = s.Forced
	c.nextSlice = s.NextSlice
	c.st = s.Stats.Clone()
	if c.st.WritesByRatio == nil {
		c.st.WritesByRatio = make(map[float64]uint64)
	}
	return c, nil
}
