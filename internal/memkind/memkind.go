// Package memkind reimplements the core of the memkind heap manager
// (Cantalupo et al., the library the paper cites for fine-grained data
// placement in flat mode) on top of the simulated physical memory.
//
// A Heap owns one arena per kind. Kinds map to numactl policies over
// the flat-mode topology:
//
//	Default       -> membind to the DDR node (node 0)
//	HBW           -> membind to the MCDRAM node (node 1); fails if full
//	HBWPreferred  -> prefer MCDRAM, spill to DDR
//	HBWInterleave -> interleave across MCDRAM only (matches memkind)
//	Interleave    -> interleave across all nodes
//
// Small allocations are served from power-of-two size classes inside
// 4 MiB arena chunks; big allocations get dedicated regions. The
// allocator never hands out overlapping blocks and tracks usable size,
// mirroring hbw_malloc_usable_size.
package memkind

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/numa"
	"repro/internal/units"
)

// Kind selects the memory properties of an allocation.
type Kind int

// The supported kinds, matching memkind's MEMKIND_* constants.
const (
	Default Kind = iota
	HBW
	HBWPreferred
	HBWInterleave
	Interleave
	numKinds
)

// String names the kind like the C library's constants.
func (k Kind) String() string {
	switch k {
	case Default:
		return "MEMKIND_DEFAULT"
	case HBW:
		return "MEMKIND_HBW"
	case HBWPreferred:
		return "MEMKIND_HBW_PREFERRED"
	case HBWInterleave:
		return "MEMKIND_HBW_INTERLEAVE"
	case Interleave:
		return "MEMKIND_INTERLEAVE"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrHBWUnavailable is returned by HBW allocations when no MCDRAM node
// exists (cache mode) — the analogue of hbw_check_available() != 0.
var ErrHBWUnavailable = errors.New("memkind: no high-bandwidth memory node available")

const (
	chunkSize    = 4 * units.MiB
	minClass     = 64 // one cache line
	bigThreshold = chunkSize / 2
)

// block is one live allocation.
type block struct {
	addr   uint64      // address handed to the caller (aligned)
	slot   uint64      // carve base owned by the allocator
	size   units.Bytes // requested
	usable units.Bytes // size class or region size minus alignment skew
	class  int         // -1 for big blocks
	kind   Kind
	region *alloc.Region // dedicated region for big blocks, else nil
}

// arena serves one kind.
type arena struct {
	kind    Kind
	policy  numa.Policy
	chunks  []*alloc.Region
	cursor  units.Bytes // bump offset in the newest chunk
	freeLs  map[int][]uint64
	aspace  *alloc.AddressSpace
	hbwNode bool // requires node 1 to exist
}

// Heap is a memkind-style heap over a simulated address space.
type Heap struct {
	space  *alloc.AddressSpace
	arenas [numKinds]*arena
	live   map[uint64]*block
	stats  Stats
}

// Stats aggregates heap activity.
type Stats struct {
	Allocs, Frees  int64
	LiveBytes      units.Bytes
	PeakLiveBytes  units.Bytes
	BytesRequested units.Bytes
}

// NewHeap builds a heap over the address space. The topology decides
// which kinds are available: without a node 1, HBW kinds return
// ErrHBWUnavailable just like hbw_malloc on a cache-mode machine.
func NewHeap(space *alloc.AddressSpace) *Heap {
	h := &Heap{space: space, live: make(map[uint64]*block)}
	topo := space.Topology()
	hbwExists := false
	for _, n := range topo.Nodes {
		if n.ID == 1 {
			hbwExists = true
		}
	}
	mk := func(k Kind, p numa.Policy, needHBW bool) *arena {
		return &arena{kind: k, policy: p, freeLs: make(map[int][]uint64), aspace: space, hbwNode: needHBW && !hbwExists}
	}
	h.arenas[Default] = mk(Default, numa.Bind(0), false)
	h.arenas[HBW] = mk(HBW, numa.Bind(1), true)
	h.arenas[HBWPreferred] = mk(HBWPreferred, numa.Prefer(1), true)
	h.arenas[HBWInterleave] = mk(HBWInterleave, numa.InterleaveAll(1), true)
	allNodes := make([]numa.NodeID, 0, len(topo.Nodes))
	for _, n := range topo.Nodes {
		allNodes = append(allNodes, n.ID)
	}
	h.arenas[Interleave] = mk(Interleave, numa.InterleaveAll(allNodes...), false)
	return h
}

// HBWAvailable reports whether high-bandwidth memory is allocatable,
// the analogue of hbw_check_available() == 0.
func (h *Heap) HBWAvailable() bool { return !h.arenas[HBW].hbwNode }

// sizeClass returns the class index and rounded size for a request.
func sizeClass(size units.Bytes) (int, units.Bytes) {
	c := 0
	s := units.Bytes(minClass)
	for s < size {
		s *= 2
		c++
	}
	return c, s
}

// Malloc allocates size bytes of the given kind and returns the
// simulated virtual address.
func (h *Heap) Malloc(kind Kind, size units.Bytes) (uint64, error) {
	if kind < 0 || kind >= numKinds {
		return 0, fmt.Errorf("memkind: unknown kind %d", int(kind))
	}
	if size <= 0 {
		return 0, fmt.Errorf("memkind: non-positive size %v", size)
	}
	a := h.arenas[kind]
	if a.hbwNode {
		return 0, ErrHBWUnavailable
	}
	var b *block
	if size > bigThreshold {
		r, err := h.space.Alloc(size, a.policy, kind.String())
		if err != nil {
			return 0, err
		}
		b = &block{addr: r.Base, slot: r.Base, size: size, usable: units.Bytes(r.Size.Pages()) * units.Page, class: -1, kind: kind, region: r}
	} else {
		class, rounded := sizeClass(size)
		if fl := a.freeLs[class]; len(fl) > 0 {
			addr := fl[len(fl)-1]
			a.freeLs[class] = fl[:len(fl)-1]
			b = &block{addr: addr, slot: addr, size: size, usable: rounded, class: class, kind: kind}
		} else {
			addr, err := a.carve(rounded)
			if err != nil {
				return 0, err
			}
			b = &block{addr: addr, slot: addr, size: size, usable: rounded, class: class, kind: kind}
		}
	}
	h.live[b.addr] = b
	h.stats.Allocs++
	h.stats.BytesRequested += size
	h.stats.LiveBytes += b.usable
	if h.stats.LiveBytes > h.stats.PeakLiveBytes {
		h.stats.PeakLiveBytes = h.stats.LiveBytes
	}
	return b.addr, nil
}

// carve bump-allocates rounded bytes from the arena's newest chunk,
// growing the arena when needed.
func (a *arena) carve(rounded units.Bytes) (uint64, error) {
	if len(a.chunks) == 0 || a.cursor+rounded > chunkSize {
		r, err := a.aspace.Alloc(chunkSize, a.policy, a.kind.String()+"/chunk")
		if err != nil {
			return 0, err
		}
		a.chunks = append(a.chunks, r)
		a.cursor = 0
	}
	chunk := a.chunks[len(a.chunks)-1]
	addr := chunk.Base + uint64(a.cursor)
	a.cursor += rounded
	return addr, nil
}

// Stats returns a copy of the heap statistics.
func (h *Heap) Stats() Stats { return h.stats }

// NodeFootprint returns bytes resident per node for one big-block
// allocation, or an approximation via the arena policy for small
// blocks (small blocks share chunks).
func (h *Heap) NodeFootprint(addr uint64) (map[numa.NodeID]units.Bytes, error) {
	b, ok := h.live[addr]
	if !ok {
		return nil, fmt.Errorf("memkind: unknown address %#x", addr)
	}
	if b.region != nil {
		return h.space.NodeBytes(b.region), nil
	}
	// Small block: attribute its usable size to the chunk's placement
	// proportionally.
	a := h.arenas[b.kind]
	for _, chunk := range a.chunks {
		if addr >= chunk.Base && addr < chunk.End() {
			nb := h.space.NodeBytes(chunk)
			out := make(map[numa.NodeID]units.Bytes)
			total := units.Bytes(0)
			ids := make([]numa.NodeID, 0, len(nb))
			for id, v := range nb {
				total += v
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				out[id] = units.Bytes(float64(b.usable) * float64(nb[id]) / float64(total))
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("memkind: block %#x not inside any chunk", addr)
}
