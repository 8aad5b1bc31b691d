package experiments

// The grid cache behind Lab: a sharded, mutex-guarded map with
// singleflight semantics (N concurrent requests for one benchmark trigger
// exactly one collection) and an optional persistent JSON layer keyed by
// (benchmark, space, platform-config hash). A cache entry can also carry
// its grid's JSON encoding, made once on first request (Lab.GridJSON).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
)

// gridShardCount spreads keys over independent locks so concurrent
// collections of different benchmarks never contend on one mutex.
const gridShardCount = 16

// gridCache is the in-memory layer. Each shard owns its key range; an
// entry's done channel closes once its grid (or error) is final, which is
// what waiters block on — never a lock held across a collection.
type gridCache struct {
	shards [gridShardCount]gridShard
}

type gridShard struct {
	mu      sync.Mutex
	entries map[string]*gridEntry
}

type gridEntry struct {
	done chan struct{} // closed when g and err are final
	g    *trace.Grid
	err  error

	// The grid's JSON, made by the first encoded call and dropped with
	// the entry. Only the coarse cache's entries are ever encoded.
	encode  sync.Once
	body    []byte
	bodyErr error
}

// encoded returns the completed entry's grid as trace.Grid.WriteJSON
// writes it, encoding on the first call; concurrent first callers wait
// for that one encode and share its bytes, which callers must not modify.
func (e *gridEntry) encoded() ([]byte, error) {
	e.encode.Do(func() {
		var buf bytes.Buffer
		if e.bodyErr = e.g.WriteJSON(&buf); e.bodyErr == nil {
			e.body = bytes.Clone(buf.Bytes()) // without the buffer's growth slack
		}
	})
	return e.body, e.bodyErr
}

func newGridCache() *gridCache {
	c := &gridCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*gridEntry)
	}
	return c
}

func (c *gridCache) shard(key string) *gridShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%gridShardCount]
}

// do returns the entry for key, invoking collect at most once per key no
// matter how many goroutines ask concurrently. Late callers join the
// in-flight collection and wait on it; a waiter whose ctx is cancelled
// abandons the flight immediately while the owner keeps collecting, so
// the grid still lands in the cache for everyone after it.
//
// A flight that fails (including owner cancellation) deletes its entry
// before publishing the error: no partial or poisoned grid stays cached,
// and the next request simply retries.
//
// On success the entry's grid is final. The joined result reports whether
// the caller found an existing entry — either a completed grid or an
// in-flight collection it waited on — as opposed to owning the collect
// call itself. Cache observers use it to count coalesced requests.
func (c *gridCache) do(ctx context.Context, key string, collect func() (*trace.Grid, error)) (e *gridEntry, joined bool, err error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil {
				return nil, true, e.err
			}
			return e, true, nil
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	e = &gridEntry{done: make(chan struct{})}
	sh.entries[key] = e
	sh.mu.Unlock()

	g, err := collect()
	if err != nil {
		sh.mu.Lock()
		// The entry may already be gone if forget ran mid-flight; delete is
		// a no-op then.
		delete(sh.entries, key)
		sh.mu.Unlock()
	}
	e.g, e.err = g, err
	close(e.done)
	if err != nil {
		return nil, false, err
	}
	return e, false, nil
}

// peek returns key's completed entry, if any, without joining or starting
// a flight. An in-flight collection reads as absent: peek never blocks,
// which is what lets a cluster replica answer "do you have a warm copy"
// without being dragged into a collection.
func (c *gridCache) peek(key string) (*gridEntry, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil, false
		}
		return e, true
	default:
		return nil, false
	}
}

// put installs an externally obtained completed grid under key if no
// entry — completed or in flight — exists. It reports whether the grid
// was stored; losing to an existing entry is not an error, the resident
// entry simply wins (matching the cache's exactly-once result identity).
func (c *gridCache) put(key string, g *trace.Grid) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[key]; ok {
		return false
	}
	e := &gridEntry{done: make(chan struct{}), g: g}
	close(e.done)
	sh.entries[key] = e
	return true
}

// forget drops key's entry. An in-flight collection is unaffected — its
// waiters hold the entry pointer and still receive the result — but no new
// request will find it, so the next lookup recollects. It reports whether
// an entry was present.
func (c *gridCache) forget(key string) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[key]
	delete(sh.entries, key)
	return ok
}

// gridKeyHash fingerprints everything a stored grid depends on: the full
// platform configuration (power model, DRAM device, noise, CPI factor) and
// the exact setting list of the space. Two labs share a disk entry iff the
// hash matches, so a recalibrated platform or a reshaped space can never
// serve stale grids.
func gridKeyHash(cfg sim.Config, space *freq.Space) string {
	h := sha256.New()
	fingerprint(h, reflect.ValueOf(cfg))
	for _, st := range space.Settings() {
		fmt.Fprintf(h, "%v %v\n", st.CPU, st.Mem)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprint writes a canonical deep rendering of v: pointers are
// dereferenced (fmt would print their addresses, which differ between
// otherwise-identical configurations), struct fields — exported or not —
// are walked in declaration order, and map entries are emitted in sorted
// order, so identical configurations always produce identical bytes.
func fingerprint(w io.Writer, v reflect.Value) {
	// Fingerprints only ever target hash.Hash and strings.Builder, neither
	// of which can fail a write; the discard is explicit so the intent is.
	emit := func(s string) { _, _ = io.WriteString(w, s) }
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			emit("nil")
			return
		}
		emit("&")
		fingerprint(w, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type().Name())
		for i := 0; i < v.NumField(); i++ {
			fingerprint(w, v.Field(i))
			emit(";")
		}
		emit("}")
	case reflect.Slice, reflect.Array:
		emit("[")
		for i := 0; i < v.Len(); i++ {
			fingerprint(w, v.Index(i))
			emit(";")
		}
		emit("]")
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var b strings.Builder
			fingerprint(&b, iter.Key())
			b.WriteString("=>")
			fingerprint(&b, iter.Value())
			entries = append(entries, b.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(w, "map%q", entries)
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%x", v.Float()) // hex float: exact, locale-free
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%d", v.Uint())
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Bool:
		fmt.Fprintf(w, "%t", v.Bool())
	default:
		// Channels, funcs, complex numbers: not configuration data. Render
		// the type name so at worst distinct configs collide, never the
		// reverse.
		fmt.Fprintf(w, "<%s>", v.Type())
	}
}

// diskCache is the optional persistent layer under a Lab.
type diskCache struct {
	dir string
}

// path derives the cache filename for one (benchmark, space, config) key.
func (d diskCache) path(bench, spaceName, cfgHash string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		}
		return '_'
	}, bench)
	return filepath.Join(d.dir, fmt.Sprintf("%s-%s-%s.grid.json", safe, spaceName, cfgHash))
}

// load returns the stored grid, or nil if it is absent, unreadable, or no
// longer matches the requested benchmark and space (then it is simply
// recollected and rewritten).
func (d diskCache) load(path, bench string, space *freq.Space) *trace.Grid {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	//lint:allow errflow read-only file; a close error after a successful read carries no data loss
	defer f.Close()
	g, err := trace.ReadJSON(f)
	if err != nil {
		return nil
	}
	if g.Benchmark != bench || g.NumSettings() != space.Len() {
		return nil
	}
	for k, st := range space.Settings() {
		if g.Settings[k] != st { //lint:allow floateq a stored grid is valid only under a bit-exact setting match
			return nil
		}
	}
	return g
}

// store persists a grid atomically: written to a temp file and renamed
// into place, so a concurrent load never observes partial JSON.
func (d diskCache) store(path string, g *trace.Grid) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, ".grid-*.tmp")
	if err != nil {
		return err
	}
	//lint:allow errflow best-effort cleanup; after the rename succeeds the temp file is already gone
	defer os.Remove(tmp.Name())
	if err := g.WriteJSON(tmp); err != nil {
		_ = tmp.Close() // the write error takes precedence
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
