// Package alloc implements the simulated physical memory substrate:
// a per-NUMA-node frame allocator, a flat page table mapping a virtual
// address space onto (node, frame) pairs, and AddressSpace, the object
// workloads allocate their data structures from.
//
// Placement obeys numa.Policy, so `numactl --membind` and the memkind
// heap both reduce to page-granular placement decisions here, exactly
// as they do on the real machine.
package alloc

import (
	"errors"
	"fmt"

	"repro/internal/numa"
	"repro/internal/units"
)

// ErrOutOfMemory is returned when a policy's node set has no free
// frames left (numactl --membind aborts the process in this case; we
// surface the error to the caller instead).
var ErrOutOfMemory = errors.New("alloc: out of memory on bound nodes")

// FrameAllocator hands out fixed-size physical frames of one node.
// Allocation state is a bitset so that multi-GiB allocations (millions
// of frames) stay cheap.
type FrameAllocator struct {
	node   numa.NodeID
	total  int64
	next   int64   // bump pointer while the free list is empty
	free   []int64 // frames returned by Free
	inUse  []uint64
	frames int64 // currently allocated
}

// NewFrameAllocator creates an allocator for a node of the given
// capacity (rounded down to whole pages).
func NewFrameAllocator(node numa.NodeID, capacity units.Bytes) *FrameAllocator {
	total := int64(capacity / units.Page)
	return &FrameAllocator{
		node:  node,
		total: total,
		inUse: make([]uint64, (total+63)/64),
	}
}

func (f *FrameAllocator) isUsed(frame int64) bool {
	return f.inUse[frame/64]&(1<<(uint(frame)%64)) != 0
}

func (f *FrameAllocator) setUsed(frame int64, used bool) {
	if used {
		f.inUse[frame/64] |= 1 << (uint(frame) % 64)
	} else {
		f.inUse[frame/64] &^= 1 << (uint(frame) % 64)
	}
}

// Node returns the node this allocator serves.
//
//simd:oracle ROADMAP item 4: accessor of the page map trace replay will place pages through
func (f *FrameAllocator) Node() numa.NodeID { return f.node }

// TotalFrames returns the node's frame capacity.
func (f *FrameAllocator) TotalFrames() int64 { return f.total }

// FreeFrames returns the number of unallocated frames.
func (f *FrameAllocator) FreeFrames() int64 { return f.total - f.frames }

// Alloc returns a free frame number or ErrOutOfMemory.
func (f *FrameAllocator) Alloc() (int64, error) {
	if n := len(f.free); n > 0 {
		fr := f.free[n-1]
		f.free = f.free[:n-1]
		f.setUsed(fr, true)
		f.frames++
		return fr, nil
	}
	if f.next >= f.total {
		return 0, ErrOutOfMemory
	}
	fr := f.next
	f.next++
	f.setUsed(fr, true)
	f.frames++
	return fr, nil
}

// Free returns a frame to the allocator. Freeing an unallocated frame
// is an error (it would indicate allocator corruption).
func (f *FrameAllocator) Free(frame int64) error {
	if frame < 0 || frame >= f.total || !f.isUsed(frame) {
		return fmt.Errorf("alloc: double free or wild frame %d on node %d", frame, f.node)
	}
	f.setUsed(frame, false)
	f.free = append(f.free, frame)
	f.frames--
	return nil
}

// PageMapping records where one virtual page lives.
type PageMapping struct {
	Node  numa.NodeID
	Frame int64
}

// pageChunkSize is the number of mappings per page-table chunk; a
// two-level structure keeps million-page regions cheap, mirroring how
// real page tables are radix trees rather than flat maps.
const pageChunkSize = 512

type pageChunk struct {
	present [pageChunkSize / 64]uint64
	slots   [pageChunkSize]PageMapping
	live    int
}

// PageTable maps virtual page numbers to physical placements.
type PageTable struct {
	chunks map[int64]*pageChunk
	mapped int
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{chunks: make(map[int64]*pageChunk)}
}

func chunkIndex(vpn int64) (int64, int) { return vpn / pageChunkSize, int(vpn % pageChunkSize) }

func (c *pageChunk) isPresent(slot int) bool {
	return c.present[slot/64]&(1<<(uint(slot)%64)) != 0
}

func (c *pageChunk) setPresent(slot int, p bool) {
	if p {
		c.present[slot/64] |= 1 << (uint(slot) % 64)
	} else {
		c.present[slot/64] &^= 1 << (uint(slot) % 64)
	}
}

// Map installs a mapping; remapping a live page is an error.
func (pt *PageTable) Map(vpn int64, m PageMapping) error {
	ci, slot := chunkIndex(vpn)
	c := pt.chunks[ci]
	if c == nil {
		c = &pageChunk{}
		pt.chunks[ci] = c
	}
	if c.isPresent(slot) {
		return fmt.Errorf("alloc: vpn %d already mapped", vpn)
	}
	c.slots[slot] = m
	c.setPresent(slot, true)
	c.live++
	pt.mapped++
	return nil
}

// Unmap removes a mapping and returns it.
func (pt *PageTable) Unmap(vpn int64) (PageMapping, error) {
	ci, slot := chunkIndex(vpn)
	c := pt.chunks[ci]
	if c == nil || !c.isPresent(slot) {
		return PageMapping{}, fmt.Errorf("alloc: vpn %d not mapped", vpn)
	}
	m := c.slots[slot]
	c.setPresent(slot, false)
	c.live--
	pt.mapped--
	if c.live == 0 {
		delete(pt.chunks, ci)
	}
	return m, nil
}

// Lookup translates a virtual page number.
func (pt *PageTable) Lookup(vpn int64) (PageMapping, bool) {
	ci, slot := chunkIndex(vpn)
	c := pt.chunks[ci]
	if c == nil || !c.isPresent(slot) {
		return PageMapping{}, false
	}
	return c.slots[slot], true
}

// Mapped returns the number of live mappings.
//
//simd:oracle ROADMAP item 4: accessor of the page map trace replay will place pages through
func (pt *PageTable) Mapped() int { return pt.mapped }

// Region is one allocated virtual range. Regions are page-aligned and
// contiguous, so the backing pages are exactly the vpns from
// Base/PageSize for Size.Pages() pages.
type Region struct {
	Base  uint64
	Size  units.Bytes
	Label string
}

func (r *Region) baseVPN() int64 { return int64(r.Base / uint64(units.Page)) }

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Base + uint64(r.Size) }

// NodeOf returns the NUMA node backing the page containing offset.
//
//simd:oracle ROADMAP item 4: accessor of the page map trace replay will place pages through
func (r *Region) NodeOf(space *AddressSpace, offset units.Bytes) (numa.NodeID, error) {
	if offset < 0 || offset >= r.Size {
		return 0, fmt.Errorf("alloc: offset %d outside region %q of %v", offset, r.Label, r.Size)
	}
	vpn := int64((r.Base + uint64(offset)) / uint64(units.Page))
	m, ok := space.table.Lookup(vpn)
	if !ok {
		return 0, fmt.Errorf("alloc: page of offset %d not mapped", offset)
	}
	return m.Node, nil
}

// AddressSpace is a process view: a bump virtual allocator, a page
// table, and per-node frame allocators built from a topology.
type AddressSpace struct {
	topo    *numa.Topology
	table   *PageTable
	nodes   map[numa.NodeID]*FrameAllocator
	nextVA  uint64
	regions map[uint64]*Region
}

// NewAddressSpace builds an address space over a topology.
func NewAddressSpace(topo *numa.Topology) *AddressSpace {
	s := &AddressSpace{
		topo:    topo,
		table:   NewPageTable(),
		nodes:   make(map[numa.NodeID]*FrameAllocator),
		nextVA:  uint64(units.Page), // keep 0 as a null page
		regions: make(map[uint64]*Region),
	}
	for _, n := range topo.Nodes {
		s.nodes[n.ID] = NewFrameAllocator(n.ID, n.Capacity)
	}
	return s
}

// Topology returns the topology the space was built from.
func (s *AddressSpace) Topology() *numa.Topology { return s.topo }

// FreeBytes reports the unallocated capacity of a node.
//
//simd:oracle ROADMAP item 4: accessor of the page map trace replay will place pages through
func (s *AddressSpace) FreeBytes(node numa.NodeID) units.Bytes {
	fa, ok := s.nodes[node]
	if !ok {
		return 0
	}
	return units.Bytes(fa.FreeFrames()) * units.Page
}

// UsedBytes reports the allocated capacity of a node.
//
//simd:oracle ROADMAP item 4: accessor of the page map trace replay will place pages through
func (s *AddressSpace) UsedBytes(node numa.NodeID) units.Bytes {
	fa, ok := s.nodes[node]
	if !ok {
		return 0
	}
	return units.Bytes(fa.TotalFrames()-fa.FreeFrames()) * units.Page
}

// Alloc carves a region of size bytes, placing each page according to
// policy. On failure every page already placed is rolled back and
// ErrOutOfMemory (wrapped) is returned.
func (s *AddressSpace) Alloc(size units.Bytes, policy numa.Policy, label string) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("alloc: non-positive size %v", size)
	}
	if err := policy.Validate(s.topo); err != nil {
		return nil, err
	}
	npages := size.Pages()
	r := &Region{Base: s.nextVA, Size: size, Label: label}
	for p := int64(0); p < npages; p++ {
		vpn := r.baseVPN() + p
		placed := false
		for _, nid := range policy.PlacementSequence(s.topo, p) {
			fa := s.nodes[nid]
			if fa == nil {
				continue
			}
			if frame, err := fa.Alloc(); err == nil {
				if err := s.table.Map(vpn, PageMapping{Node: nid, Frame: frame}); err != nil {
					return nil, err // internal invariant breach
				}
				placed = true
				break
			}
		}
		if !placed {
			// Roll back everything placed so far.
			for q := int64(0); q < p; q++ {
				m, _ := s.table.Unmap(r.baseVPN() + q)
				_ = s.nodes[m.Node].Free(m.Frame)
			}
			return nil, fmt.Errorf("alloc: %q needs %v under %v: %w", label, size, policy, ErrOutOfMemory)
		}
	}
	s.nextVA = r.Base + uint64(npages)*uint64(units.Page)
	s.regions[r.Base] = r
	return r, nil
}

// Free releases a region.
//
//simd:oracle ROADMAP item 4: accessor of the page map trace replay will place pages through
func (s *AddressSpace) Free(r *Region) error {
	if _, ok := s.regions[r.Base]; !ok {
		return fmt.Errorf("alloc: region %q at %#x not live", r.Label, r.Base)
	}
	for p := int64(0); p < r.Size.Pages(); p++ {
		m, err := s.table.Unmap(r.baseVPN() + p)
		if err != nil {
			return err
		}
		if err := s.nodes[m.Node].Free(m.Frame); err != nil {
			return err
		}
	}
	delete(s.regions, r.Base)
	return nil
}

// NodeBytes returns how many bytes of the region live on each node.
func (s *AddressSpace) NodeBytes(r *Region) map[numa.NodeID]units.Bytes {
	out := make(map[numa.NodeID]units.Bytes)
	for p := int64(0); p < r.Size.Pages(); p++ {
		if m, ok := s.table.Lookup(r.baseVPN() + p); ok {
			out[m.Node] += units.Page
		}
	}
	return out
}

// Regions returns the number of live regions.
//
//simd:oracle ROADMAP item 4: accessor of the page map trace replay will place pages through
func (s *AddressSpace) Regions() int { return len(s.regions) }
