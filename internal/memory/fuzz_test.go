package memory

import "testing"

// refRegion is the per-page reference model of a Region: one home per
// page, every operation applied page by page, every byte sum accumulated
// page by page — the page-table implementation the residency descriptor
// replaced.
type refRegion struct {
	bytes, pageSize int64
	homes           []int16
}

func newRefRegion(bytes, pageSize int64, placement Placement, home, sockets int) *refRegion {
	n := int((bytes + pageSize - 1) / pageSize)
	if n == 0 {
		n = 1
	}
	r := &refRegion{bytes: bytes, pageSize: pageSize, homes: make([]int16, n)}
	for i := range r.homes {
		switch placement {
		case Deferred, FirstTouch:
			r.homes[i] = Unallocated
		case Interleave:
			r.homes[i] = int16(i % sockets)
		case Home:
			r.homes[i] = int16(home)
		}
	}
	return r
}

func (r *refRegion) pageBytes(i int) int64 {
	if r.bytes == 0 {
		return 0
	}
	if i == len(r.homes)-1 {
		if rem := r.bytes % r.pageSize; rem != 0 {
			return rem
		}
	}
	return r.pageSize
}

func (r *refRegion) touch(socket int) int64 {
	var newly int64
	for i, h := range r.homes {
		if h == Unallocated {
			r.homes[i] = int16(socket)
			newly += r.pageBytes(i)
		}
	}
	return newly
}

func (r *refRegion) migrate(socket int) int64 {
	var moved int64
	for i, h := range r.homes {
		if h != int16(socket) {
			if h != Unallocated {
				moved += r.pageBytes(i)
			}
			r.homes[i] = int16(socket)
		}
	}
	return moved
}

func (r *refRegion) allocated() bool {
	for _, h := range r.homes {
		if h == Unallocated {
			return false
		}
	}
	return true
}

func (r *refRegion) perSocket(sockets int) (out []int64, homed int64) {
	out = make([]int64, sockets)
	for i, h := range r.homes {
		if h != Unallocated {
			out[h] += r.pageBytes(i)
			homed += r.pageBytes(i)
		}
	}
	return out, homed
}

// checkRegion compares every read accessor of got against the model.
func checkRegion(t *testing.T, step int, got *Region, want *refRegion, sockets int) {
	t.Helper()
	if got.Pages() != len(want.homes) {
		t.Fatalf("step %d region %d: Pages = %d, want %d", step, got.ID(), got.Pages(), len(want.homes))
	}
	if got.Allocated() != want.allocated() {
		t.Fatalf("step %d region %d: Allocated = %v, want %v", step, got.ID(), got.Allocated(), want.allocated())
	}
	ws, homed := want.perSocket(sockets)
	gs := make([]int64, sockets)
	gs[0] = 5 // AddBytesOnSocket accumulates
	got.AddBytesOnSocket(gs)
	gs[0] -= 5
	for s := range ws {
		if gs[s] != ws[s] {
			t.Fatalf("step %d region %d: AddBytesOnSocket = %v, want %v", step, got.ID(), gs, ws)
		}
	}
	if got.AllocatedBytes() != homed {
		t.Fatalf("step %d region %d: AllocatedBytes = %d, want %d", step, got.ID(), got.AllocatedBytes(), homed)
	}
	for i, h := range want.homes {
		if got.HomeOfPage(i) != h {
			t.Fatalf("step %d region %d: HomeOfPage(%d) = %d, want %d", step, got.ID(), i, got.HomeOfPage(i), h)
		}
	}
}

// FuzzRegionOps drives a Manager through a byte-coded sequence of Alloc,
// Touch, Migrate and Reset and checks every region after every step
// against refRegion: Pages, Allocated, AddBytesOnSocket, AllocatedBytes,
// every HomeOfPage, and the bytes Touch and Migrate return, plus the
// Manager's TotalBytesOnSocket and UnallocatedBytes. Each op takes four
// bytes: the opcode, then operands; a size operand spans zero bytes, whole
// pages, partial last pages and a region smaller than the socket count.
func FuzzRegionOps(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 9, 2, 0, 1, 0, 1, 0, 2, 0, 3, 0})
	f.Add(uint8(8), uint8(1), []byte{0, 200, 2, 0, 0, 0, 0, 0, 2, 0, 5, 0, 2, 0, 5, 0})
	f.Add(uint8(3), uint8(2), []byte{0, 7, 2, 0, 0, 3, 0, 0, 0, 0, 3, 2, 3, 0, 0, 0, 0, 1, 1, 0})
	f.Add(uint8(2), uint8(0), []byte{0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, sockRaw, pageSel uint8, script []byte) {
		sockets := 1 + int(sockRaw%8)
		pageSize := []int64{DefaultPageSize, 64, 1}[int(pageSel)%3]
		m := NewManagerPageSize(sockets, pageSize)
		var ref []*refRegion
		for step := 0; step+4 <= len(script) && step < 4*256; step += 4 {
			op, a, b, c := script[step]%4, int(script[step+1]), int(script[step+2]), int(script[step+3])
			switch op {
			case 0: // Alloc: a = size selector, b = placement, c = home socket
				bytes := int64(a) * pageSize / 8
				if a%3 == 0 {
					bytes = int64(a/3) * pageSize
				}
				p := Placement(b % 4)
				home := c % sockets
				r := m.Alloc("r", bytes, p, home)
				if r.ID() != len(ref) {
					t.Fatalf("step %d: Alloc ID %d, want %d", step, r.ID(), len(ref))
				}
				ref = append(ref, newRefRegion(bytes, pageSize, p, home, sockets))
			case 1, 2: // Touch / Migrate region a on socket b
				if len(ref) == 0 {
					continue
				}
				i, s := a%len(ref), b%sockets
				var got, want int64
				if op == 1 {
					got, want = m.Regions()[i].Touch(s), ref[i].touch(s)
				} else {
					got, want = m.Regions()[i].Migrate(s), ref[i].migrate(s)
				}
				if got != want {
					t.Fatalf("step %d: op %d on region %d socket %d returned %d bytes, want %d", step, op, i, s, got, want)
				}
			case 3:
				m.Reset()
				ref = ref[:0]
			}
			if len(m.Regions()) != len(ref) {
				t.Fatalf("step %d: %d regions, want %d", step, len(m.Regions()), len(ref))
			}
			total := make([]int64, sockets)
			var unalloc int64
			for i, r := range m.Regions() {
				checkRegion(t, step, r, ref[i], sockets)
				ws, homed := ref[i].perSocket(sockets)
				for s := range ws {
					total[s] += ws[s]
				}
				unalloc += ref[i].bytes - homed
			}
			got := m.TotalBytesOnSocket()
			for s := range total {
				if got[s] != total[s] {
					t.Fatalf("step %d: TotalBytesOnSocket = %v, want %v", step, got, total)
				}
			}
			if m.UnallocatedBytes() != unalloc {
				t.Fatalf("step %d: UnallocatedBytes = %d, want %d", step, m.UnallocatedBytes(), unalloc)
			}
		}
	})
}
