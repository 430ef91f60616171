package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// queryCache memoizes rendered query results per session, keyed by the
// goal up to variable renaming (canonicalGoal) and validated against
// the snapshot generation: an entry written against generation g is
// served only while the session's published snapshot still reports g,
// so a cache hit is always indistinguishable from re-running the match.
// Bounded LRU; a nil cache (caching disabled) is safe to call.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	m     map[string]*list.Element
	bytes int64 // Σ size() of the entries held

	// evictions counts entries dropped for any reason other than a
	// whole-cache purge: LRU capacity pressure and stale-generation
	// eviction on sight. evictTotal/evictVec mirror it into the server
	// registry (server-wide counter and per-session family); both are
	// nil-safe handles.
	evictions  atomic.Int64
	evictTotal *obs.Counter
	evictVec   *obs.Counter
}

type cacheEntry struct {
	key  string
	gen  uint64
	rows *renderedRows
}

func newQueryCache(capacity int, evictTotal, evictVec *obs.Counter) *queryCache {
	if capacity <= 0 {
		return nil
	}
	return &queryCache{
		cap: capacity, ll: list.New(), m: make(map[string]*list.Element),
		evictTotal: evictTotal, evictVec: evictVec,
	}
}

// evict drops el and records one eviction; caller holds mu.
func (c *queryCache) evict(el *list.Element) {
	e := c.ll.Remove(el).(*cacheEntry)
	delete(c.m, e.key)
	c.bytes -= e.rows.size()
	c.evictions.Add(1)
	c.evictTotal.Inc()
	c.evictVec.Inc()
}

// get returns the cached rows for key at generation gen, or nil. An
// entry from an older generation is evicted on sight.
func (c *queryCache) get(key string, gen uint64) *renderedRows {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.m[key]
	if el == nil {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		c.evict(el)
		return nil
	}
	c.ll.MoveToFront(el)
	return e.rows
}

// put stores rows for key at generation gen, evicting the least
// recently used entry beyond capacity.
func (c *queryCache) put(key string, gen uint64, rows *renderedRows) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += rows.size()
	if el := c.m[key]; el != nil {
		e := el.Value.(*cacheEntry)
		c.bytes -= e.rows.size()
		e.gen = gen
		e.rows = rows
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, rows: rows})
	for c.ll.Len() > c.cap {
		c.evict(c.ll.Back())
	}
}

// purge drops everything; called after each committed write batch and
// on reload. Generation checks would catch stale entries lazily, but
// purging keeps memory from accumulating dead generations.
func (c *queryCache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.m)
	c.bytes = 0
}

// size returns the number of entries held and their bytes.
func (c *queryCache) size() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// evicted is the lifetime eviction count (0 for a disabled cache).
func (c *queryCache) evicted() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}
