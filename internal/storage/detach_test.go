package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// These tests hold copy-on-write detach to snapshot isolation: a
// snapshot view must answer every read exactly as it did when it was
// taken, however the writer goes on to insert, remove and index, and
// although detach leaves the views and the writer sharing position
// lists until the writer changes one.

// viewPicture is what a snapshot view answered when it was taken.
type viewPicture struct {
	view   *Relation
	tuples []Tuple           // At(pos), copied
	lists  []map[Value][]int // [col] → the column's lists, nil when unindexed
}

// pictureOf records what view holds and which columns it has indexed.
func pictureOf(view *Relation) *viewPicture {
	p := &viewPicture{view: view, tuples: view.Tuples(), lists: make([]map[Value][]int, view.Arity)}
	for _, col := range view.IndexedColumns() {
		p.lists[col] = scanIndex(p.tuples, col)
	}
	return p
}

// check compares the view's answers with the picture: Len, At,
// Contains over every tuple of dom × dom, and LookupNoBuild on every
// column for every value of dom. A column the picture has no index on
// may since have been built by LookupShared; it must then agree with a
// scan of the pictured tuples.
func (p *viewPicture) check(dom []Value) error {
	v := p.view
	if v.Len() != len(p.tuples) {
		return fmt.Errorf("Len = %d, was %d", v.Len(), len(p.tuples))
	}
	in := map[string]bool{}
	for pos, tu := range p.tuples {
		if !v.At(pos).Equal(tu) {
			return fmt.Errorf("At(%d) = %v, was %v", pos, v.At(pos), tu)
		}
		in[tu.Key()] = true
	}
	for _, a := range dom {
		for _, b := range dom {
			tu := Tuple{a, b}
			if v.Contains(tu) != in[tu.Key()] {
				return fmt.Errorf("Contains(%v) = %v, was %v", tu, v.Contains(tu), in[tu.Key()])
			}
		}
	}
	for col := 0; col < v.Arity; col++ {
		want := p.lists[col]
		built := want == nil
		if built {
			want = scanIndex(p.tuples, col)
		}
		for _, val := range dom {
			got, ok := v.LookupNoBuild(col, val)
			if built && !ok {
				continue
			}
			if !ok || !reflect.DeepEqual(got, want[val]) {
				return fmt.Errorf("LookupNoBuild(%d, %v) = %v, %v; was %v", col, val, got, ok, want[val])
			}
		}
	}
	return nil
}

// checkWriterLists compares every built column index of r with a fresh
// buildColumnIndex: same keys, same ascending lists.
func checkWriterLists(r *Relation) error {
	for col := range r.colIndex {
		idx := r.colIndex[col].Load()
		if idx == nil {
			continue
		}
		if want := r.buildColumnIndex(col); !reflect.DeepEqual(*idx, want) {
			return fmt.Errorf("column %d index %v, a rebuild gives %v", col, *idx, want)
		}
	}
	return nil
}

// detachDomain interns a small domain, so tuples over it repeat column
// values and position lists hold several members.
func detachDomain(n int) []Value {
	dom := make([]Value, n)
	for i := range dom {
		dom[i] = InternSym(fmt.Sprintf("d%d", i))
	}
	return dom
}

// detachStep applies one random writer operation to r: an Insert, a
// Remove of a random tuple or of r.At(i), or an EnsureIndex. It reports
// whether the relation may have changed.
func detachStep(rng *rand.Rand, r *Relation, dom []Value) bool {
	pick := func() Tuple { return Tuple{dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))]} }
	switch k := rng.Intn(10); {
	case k < 5:
		r.Insert(pick())
	case k < 7:
		r.Remove(pick())
	case k < 9:
		if r.Len() > 0 {
			r.Remove(r.At(rng.Intn(r.Len())))
		}
	default:
		r.EnsureIndex(rng.Intn(r.Arity))
		return false
	}
	return true
}

// TestDetachSnapshotIsolationRandom interleaves Insert, Remove (of
// r.At(i) too), Snapshot, EnsureIndex and LookupShared at random. After
// every write, each earlier snapshot still answers Len, At, Contains and
// LookupNoBuild as it did when taken, and the writer's position lists
// equal a fresh build.
func TestDetachSnapshotIsolationRandom(t *testing.T) {
	dom := detachDomain(9)
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase()
		r := db.Ensure("r", 2)
		if seed%2 == 0 {
			r.EnsureIndex(0)
		}
		var pics []*viewPicture
		for step := 0; step < 300; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch k := rng.Intn(10); {
			case k < 2:
				pics = append(pics, pictureOf(db.Snapshot().Relation("r")))
				if len(pics) > 12 {
					pics = pics[1:]
				}
				continue
			case k < 3 && len(pics) > 0:
				p := pics[rng.Intn(len(pics))]
				col, val := rng.Intn(2), dom[rng.Intn(len(dom))]
				got, _ := p.view.LookupShared(col, val)
				if want := scanIndex(p.tuples, col)[val]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: LookupShared(%d, %v) = %v on a view holding %v", what, col, val, got, want)
				}
				continue
			}
			if !detachStep(rng, r, dom) {
				continue
			}
			for i, p := range pics {
				if err := p.check(dom); err != nil {
					t.Fatalf("%s: snapshot %d of %d: %v", what, i, len(pics), err)
				}
			}
			if err := checkWriterLists(r); err != nil {
				t.Fatalf("%s: writer: %v", what, err)
			}
		}
	}
}

// TestDetachSnapshotIsolationConcurrent runs the same writer while
// reader goroutines check every published snapshot against its picture
// and build missing column indexes on it through LookupShared. Run it
// under -race: a writer that shifts a list still shared with a view is
// a data race as well as a wrong answer.
func TestDetachSnapshotIsolationConcurrent(t *testing.T) {
	dom := detachDomain(9)
	rng := rand.New(rand.NewSource(99))
	db := NewDatabase()
	r := db.Ensure("r", 2)
	r.EnsureIndex(1)

	var mu sync.Mutex
	var pics []*viewPicture
	var checked atomic.Int64 // view checks the readers completed
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				held := append([]*viewPicture(nil), pics...)
				mu.Unlock()
				for _, p := range held {
					col, val := rrng.Intn(2), dom[rrng.Intn(len(dom))]
					if got, _ := p.view.LookupShared(col, val); !reflect.DeepEqual(got, scanIndex(p.tuples, col)[val]) {
						t.Errorf("reader %d: LookupShared(%d, %v) = %v", g, col, val, got)
						return
					}
					if err := p.check(dom); err != nil {
						t.Errorf("reader %d: %v", g, err)
						return
					}
					checked.Add(1)
				}
			}
		}(g)
	}
	// The writer keeps going until the readers have overlapped it, or
	// one of them has failed and stopped.
	for step := 0; step < 2000 || checked.Load() < 500 && !t.Failed(); step++ {
		if step%10 == 0 {
			p := pictureOf(db.Snapshot().Relation("r"))
			mu.Lock()
			pics = append(pics, p)
			if len(pics) > 6 {
				pics = pics[1:]
			}
			mu.Unlock()
		}
		detachStep(rng, r, dom)
	}
	close(stop)
	wg.Wait()
	if err := checkWriterLists(r); err != nil {
		t.Fatal(err)
	}
}
