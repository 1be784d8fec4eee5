package serve

import (
	"fmt"
	"sync"

	"repro/internal/archive"
)

// resultCache is the service's archive-backed result store: one POMARC2
// shard per completed run (record 0 holds the trajectory), with a
// KeyDir mapping the canonical spec hash to the shard id. Both halves
// are durable and crash-safe on their own terms — shards commit by
// rename-on-close, the key dir appends with fsync and truncates torn
// tails on open — and the publish order (shard first, key second)
// means a crash can orphan a shard but never bind a key to data that
// does not exist.
type resultCache struct {
	dir   string
	codec archive.Codec

	mu   sync.Mutex // serializes KeyDir access and shard-id allocation
	keys *archive.KeyDir
	next int // low-water mark for CreateAnyWith probing
}

// openResultCache opens (or initializes) the cache rooted at dir.
func openResultCache(dir string, codec archive.Codec) (*resultCache, error) {
	keys, err := archive.OpenKeyDir(dir)
	if err != nil {
		return nil, err
	}
	next, err := archive.NextShard(dir)
	if err != nil {
		_ = keys.Close()
		return nil, err
	}
	return &resultCache{dir: dir, codec: codec, keys: keys, next: next}, nil
}

// lookup returns the shard id bound to hash, if any.
func (c *resultCache) lookup(hash string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.keys.Get(hash)
	return int(idx), ok
}

// read loads the cached record for a shard id previously returned by
// lookup. The archive round trip is bitwise-exact, so rendering the
// returned record reproduces the fresh run's body byte for byte.
func (c *resultCache) read(shard int) (*archive.Record, error) {
	s, err := archive.OpenShard(archive.ShardPath(c.dir, shard))
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close() }()
	if s.Len() != 1 {
		return nil, fmt.Errorf("serve: cache shard %d holds %d records, want 1", shard, s.Len())
	}
	return s.Read(0)
}

// begin allocates a fresh shard for a run about to execute and opens
// its single record. The writer stays invisible to readers (and to
// lookup) until publish; a canceled or failed run simply Aborts it.
func (c *resultCache) begin() (*archive.Writer, *archive.RecordWriter, error) {
	c.mu.Lock()
	from := c.next
	c.mu.Unlock()
	w, err := archive.CreateAnyWith(c.dir, from, c.codec)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	if w.Shard() >= c.next {
		c.next = w.Shard() + 1
	}
	c.mu.Unlock()
	rec, err := w.Begin(0, nil)
	if err != nil {
		_ = w.Abort()
		return nil, nil, err
	}
	return w, rec, nil
}

// publish commits a sealed shard under hash. The shard writer must
// already have Closed successfully (the data is durable before the key
// becomes visible).
func (c *resultCache) publish(hash string, shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keys.Put(hash, uint64(shard))
}

// len returns the number of published cache entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keys.Len()
}

// close releases the key dir.
func (c *resultCache) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keys.Close()
}
