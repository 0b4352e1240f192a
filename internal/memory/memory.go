// Package memory models NUMA page placement for the simulated machine.
//
// Applications declare named Regions (a tile of a matrix, a chunk of a
// stream array). A region is a run of pages; each page has a home socket or
// is still unallocated. The placement policies mirror what the paper's
// runtimes rely on:
//
//   - FirstTouch: Linux's default — a page is homed on the socket of the
//     first core that writes it.
//   - Interleave: pages round-robin across sockets (numactl --interleave).
//   - Home: explicit placement on one socket (numactl --membind, or the
//     expert programmer's distribution).
//   - Deferred: the allocation is postponed until the runtime knows where
//     the producing task will run (Drebes et al.'s deferred allocation,
//     the cornerstone of LAS); the first Touch then homes all pages at once.
//
// Every placement, and every Touch and Migrate, homes a whole region at
// once, so a region stores one residency descriptor instead of a page
// table, and schedulers ask "where does this task's data live?" in
// O(sockets) per region regardless of its size.
package memory

import (
	"fmt"
)

// DefaultPageSize is the simulated page granularity (4 KiB, as on the
// paper's Linux testbed).
const DefaultPageSize = 4096

// Placement selects how a region's pages are homed.
type Placement int

const (
	// Deferred leaves pages unallocated until first touch; the touching
	// socket becomes the home of every still-unallocated page.
	Deferred Placement = iota
	// FirstTouch behaves like Deferred in the simulator (pages are homed on
	// first touch); it exists as a distinct label because policies treat
	// "OS default" and "runtime-deferred" allocations differently in
	// statistics.
	FirstTouch
	// Interleave homes page i on socket i mod sockets at creation.
	Interleave
	// Home homes every page on a fixed socket at creation.
	Home
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case Deferred:
		return "deferred"
	case FirstTouch:
		return "first-touch"
	case Interleave:
		return "interleave"
	case Home:
		return "home"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Unallocated marks a page with no home yet.
const Unallocated = int16(-1)

// interleaved is the residency of a region whose page i lives on socket
// i mod sockets, as Alloc homes an Interleave region.
const interleaved = int16(-2)

// Region is a contiguous, named allocation whose pages may live on
// different sockets.
//
// Every operation homes a whole region at once: Alloc by placement, Touch
// every still-unallocated page (and a region is either entirely unallocated
// or entirely homed), Migrate every page. So a region's residency is one
// of three states — unallocated, every page on one socket, or the
// Alloc-time interleave — and one descriptor, not a page table, records it.
// Per-page views (Pages, HomeOfPage) are computed from it.
type Region struct {
	id    int
	name  string
	bytes int64
	pages int
	// home is the socket of every page, Unallocated, or interleaved.
	home      int16
	pageSize  int64
	placement Placement
	mgr       *Manager
}

// ID returns the region's dense identifier within its Manager.
func (r *Region) ID() int { return r.id }

// Name returns the diagnostic name.
func (r *Region) Name() string { return r.name }

// Bytes returns the region size.
func (r *Region) Bytes() int64 { return r.bytes }

// Pages returns the number of pages.
func (r *Region) Pages() int { return r.pages }

// Placement returns the placement policy the region was created with.
func (r *Region) Placement() Placement { return r.placement }

// Allocated reports whether every page has a home.
func (r *Region) Allocated() bool { return r.home != Unallocated }

// HomeOfPage returns the home socket of page i, or Unallocated.
func (r *Region) HomeOfPage(i int) int16 {
	if i < 0 || i >= r.pages {
		panic(fmt.Sprintf("memory: page %d of %d", i, r.pages))
	}
	if r.home == interleaved {
		return int16(i % r.mgr.sockets)
	}
	return r.home
}

// BytesOnSocket returns, per socket, the bytes of this region homed there.
// Unallocated bytes are not counted.
func (r *Region) BytesOnSocket(sockets int) []int64 {
	out := make([]int64, sockets)
	r.AddBytesOnSocket(out)
	return out
}

// AddBytesOnSocket accumulates, per socket, the bytes of this region homed
// there into out, whose length must cover every socket. It is the
// allocation-free form of BytesOnSocket for schedulers that query residency
// once per task, and costs O(1), or O(sockets) for an interleaved region.
func (r *Region) AddBytesOnSocket(out []int64) {
	switch r.home {
	case Unallocated:
	case interleaved:
		for s := 0; s < r.mgr.sockets && s < r.pages; s++ {
			out[s] += r.interleavedBytes(s)
		}
	default:
		out[r.home] += r.bytes
	}
}

// interleavedBytes returns the bytes the interleave homes on socket s: one
// full page per page index congruent to s, less the missing tail of the
// last page (partial, or empty for a zero-byte region) if s holds it.
func (r *Region) interleavedBytes(s int) int64 {
	n := r.mgr.sockets
	pages := r.pages / n
	if s < r.pages%n {
		pages++
	}
	b := int64(pages) * r.pageSize
	if s == (r.pages-1)%n {
		b -= int64(r.pages)*r.pageSize - r.bytes
	}
	return b
}

// AllocatedBytes returns the bytes with a home.
func (r *Region) AllocatedBytes() int64 {
	if r.home == Unallocated {
		return 0
	}
	return r.bytes
}

// Touch homes every still-unallocated page of the region on the given
// socket (first-touch semantics) and returns the number of bytes newly
// homed. Touching an allocated region is a no-op.
func (r *Region) Touch(socket int) int64 {
	if socket < 0 || socket >= r.mgr.sockets {
		panic(fmt.Sprintf("memory: touch on socket %d of %d", socket, r.mgr.sockets))
	}
	if r.home != Unallocated {
		return 0
	}
	r.home = int16(socket)
	return r.bytes
}

// Migrate re-homes every page of the region to the given socket and returns
// the bytes moved (pages already there, and unallocated pages, are not
// counted). This is the page-migration primitive OS-level techniques use;
// the paper's policies don't migrate, but ablations can.
func (r *Region) Migrate(socket int) int64 {
	if socket < 0 || socket >= r.mgr.sockets {
		panic(fmt.Sprintf("memory: migrate to socket %d of %d", socket, r.mgr.sockets))
	}
	var moved int64
	switch r.home {
	case Unallocated:
	case interleaved:
		moved = r.bytes - r.interleavedBytes(socket)
	default:
		if int(r.home) != socket {
			moved = r.bytes
		}
	}
	r.home = int16(socket)
	return moved
}

// Manager owns the regions of one simulated application run. A Manager can
// be Reset and refilled: the Region structs are kept pointer-stable across
// resets, so a pooled runtime re-running the same workload shape allocates
// no region state after the first run.
type Manager struct {
	sockets  int
	pageSize int64
	regions  []*Region
	// pool holds every Region struct ever created, in ID order; regions is
	// always pool[:n]. Reset just truncates, and Alloc revives pool entries
	// before allocating fresh ones.
	pool []*Region
}

// NewManager creates a Manager for a machine with the given socket count
// and the default page size.
func NewManager(sockets int) *Manager {
	return NewManagerPageSize(sockets, DefaultPageSize)
}

// NewManagerPageSize creates a Manager with an explicit page size.
func NewManagerPageSize(sockets int, pageSize int64) *Manager {
	if sockets <= 0 {
		panic(fmt.Sprintf("memory: %d sockets", sockets))
	}
	if pageSize <= 0 {
		panic(fmt.Sprintf("memory: page size %d", pageSize))
	}
	return &Manager{sockets: sockets, pageSize: pageSize}
}

// Sockets returns the socket count the manager was created with.
func (m *Manager) Sockets() int { return m.sockets }

// PageSize returns the page granularity.
func (m *Manager) PageSize() int64 { return m.pageSize }

// Regions returns all regions in creation order. The returned slice is the
// manager's own; callers must not mutate it.
func (m *Manager) Regions() []*Region { return m.regions }

// Owns reports whether reg is one of m's live regions — allocated by m and
// not recycled by a Reset since.
func (m *Manager) Owns(reg *Region) bool {
	id := reg.id
	return id < len(m.regions) && m.regions[id] == reg
}

// Alloc creates a region of the given size under the placement policy.
// homeSocket is only used by Home (pass 0 otherwise). Zero-byte regions are
// legal and occupy one (empty) page so they still have an identity.
func (m *Manager) Alloc(name string, bytes int64, placement Placement, homeSocket int) *Region {
	if bytes < 0 {
		panic(fmt.Sprintf("memory: alloc %q of %d bytes", name, bytes))
	}
	nPages := int((bytes + m.pageSize - 1) / m.pageSize)
	if nPages == 0 {
		nPages = 1
	}
	home := Unallocated
	switch placement {
	case Deferred, FirstTouch:
	case Interleave:
		home = interleaved
	case Home:
		if homeSocket < 0 || homeSocket >= m.sockets {
			panic(fmt.Sprintf("memory: home socket %d of %d", homeSocket, m.sockets))
		}
		home = int16(homeSocket)
	default:
		panic(fmt.Sprintf("memory: unknown placement %v", placement))
	}
	id := len(m.regions)
	var r *Region
	if id < len(m.pool) {
		r = m.pool[id]
	} else {
		r = &Region{}
		m.pool = append(m.pool, r)
	}
	*r = Region{
		id:        id,
		name:      name,
		bytes:     bytes,
		pages:     nPages,
		home:      home,
		pageSize:  m.pageSize,
		placement: placement,
		mgr:       m,
	}
	m.regions = m.pool[:id+1]
	return r
}

// Reset discards every region while keeping their structs pooled for reuse
// by subsequent Allocs. Region pointers handed out before the reset are
// recycled by those later Allocs and must not be retained.
func (m *Manager) Reset() {
	m.regions = m.pool[:0]
}

// TotalBytesOnSocket sums the homed bytes of every region per socket.
func (m *Manager) TotalBytesOnSocket() []int64 {
	out := make([]int64, m.sockets)
	for _, r := range m.regions {
		r.AddBytesOnSocket(out)
	}
	return out
}

// UnallocatedBytes returns the total bytes still without a home.
func (m *Manager) UnallocatedBytes() int64 {
	var n int64
	for _, r := range m.regions {
		n += r.bytes - r.AllocatedBytes()
	}
	return n
}
