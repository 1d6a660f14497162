package lambda

import (
	"errors"
	"fmt"
	"time"

	"ampsinf/internal/cloud/stage"
	"ampsinf/internal/perf"
)

// errTimeoutSentinel aborts handler execution when simulated time crosses
// the function timeout; Invoke converts it into a timeout error.
var errTimeoutSentinel = errors.New("lambda: timeout sentinel")

// Context is the per-invocation environment handed to handlers: it
// advances simulated time (enforcing the function timeout), meters /tmp
// usage against the 512 MB quota, and provides perf-model helpers so
// handlers account initialization, loading and compute consistently.
type Context struct {
	platform *Platform
	memoryMB int
	timeout  time.Duration
	cold     bool

	elapsed  time.Duration
	timedOut bool
	tmpUsed  int64
	phases   []Phase
}

// Cold reports whether this invocation started a fresh container.
func (c *Context) Cold() bool { return c.cold }

// Perf returns the platform performance model.
func (c *Context) Perf() perf.Params { return c.platform.perf }

// advance adds simulated time under the given phase label. It aborts the
// handler (via panic, recovered by Invoke) when the timeout is exceeded.
func (c *Context) advance(phase string, d time.Duration) {
	c.advanceBytes(phase, d, 0)
}

// advanceBytes is advance with the phase's payload size recorded, so
// traces can report bytes moved per transfer phase.
func (c *Context) advanceBytes(phase string, d time.Duration, bytes int64) {
	if d < 0 {
		d = 0
	}
	c.elapsed += d
	c.phases = append(c.phases, Phase{Name: phase, Duration: d, Bytes: bytes})
	if c.elapsed > c.timeout {
		c.timedOut = true
		panic(errTimeoutSentinel)
	}
}

// TmpAlloc reserves n bytes of /tmp, failing when usage would exceed the
// platform's 512 MB ephemeral-storage quota.
func (c *Context) TmpAlloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("lambda: negative tmp allocation %d", n)
	}
	limit := int64(c.platform.quota.TmpLimitMB) << 20
	if c.tmpUsed+n > limit {
		return fmt.Errorf("lambda: /tmp overflow: %d + %d bytes exceeds %d MB quota",
			c.tmpUsed, n, c.platform.quota.TmpLimitMB)
	}
	c.tmpUsed += n
	return nil
}

// TmpFree releases n bytes of /tmp.
func (c *Context) TmpFree(n int64) {
	c.tmpUsed -= n
	if c.tmpUsed < 0 {
		c.tmpUsed = 0
	}
}

// InitDeps accounts cold-start dependency initialization (unpacking and
// importing the framework layer) for a partition of weightsBytes.
func (c *Context) InitDeps(weightsBytes int64) {
	c.advance("deps-init", c.platform.perf.DepsInitTime(c.memoryMB, weightsBytes))
}

// LoadWeights accounts model/weights deserialization time and stages the
// weights in /tmp.
func (c *Context) LoadWeights(weightsBytes int64) error {
	if err := c.TmpAlloc(weightsBytes); err != nil {
		return err
	}
	c.advanceBytes("load-weights", c.platform.perf.WeightsLoadTime(c.memoryMB, weightsBytes), weightsBytes)
	return nil
}

// Compute accounts a forward pass of flops on a partition holding
// weightsBytes of parameters.
func (c *Context) Compute(flops, weightsBytes int64) {
	c.advance("compute", c.platform.perf.ComputeTime(c.memoryMB, flops, weightsBytes))
}

// GetObject reads from the staging store, advancing simulated time by the
// transfer and staging the payload in /tmp.
func (c *Context) GetObject(store stage.Store, key string) ([]byte, error) {
	data, d, err := store.Get(key)
	if err != nil {
		return nil, err
	}
	if err := c.TmpAlloc(int64(len(data))); err != nil {
		return nil, err
	}
	c.advanceBytes("s3-read", d, int64(len(data)))
	return data, nil
}

// GetObjectSize is GetObject for callers that only need the object's
// size: it charges, faults and advances simulated time exactly like
// GetObject — including the /tmp reservation, which the caller must
// TmpFree once done — without materializing the payload. Stores that
// don't implement stage.Sizer fall back to a full GetObject.
func (c *Context) GetObjectSize(store stage.Store, key string) (int64, error) {
	sz, ok := store.(stage.Sizer)
	if !ok {
		data, err := c.GetObject(store, key)
		if err != nil {
			return 0, err
		}
		return int64(len(data)), nil
	}
	n, d, err := sz.GetSize(key)
	if err != nil {
		return 0, err
	}
	if err := c.TmpAlloc(n); err != nil {
		return 0, err
	}
	c.advanceBytes("s3-read", d, n)
	return n, nil
}

// PutObject writes to the staging store, advancing simulated time by the
// transfer.
func (c *Context) PutObject(store stage.Store, key string, data []byte) error {
	d, err := store.Put(key, data)
	if err != nil {
		return err
	}
	c.advanceBytes("s3-write", d, int64(len(data)))
	return nil
}

// PutObjectStable is PutObject for buffers that stay immutable for the
// object's lifetime: stores implementing stage.StablePutter retain the
// caller's slice instead of copying it. Charges and simulated time are
// identical to PutObject either way.
func (c *Context) PutObjectStable(store stage.Store, key string, data []byte) error {
	sp, ok := store.(stage.StablePutter)
	if !ok {
		return c.PutObject(store, key, data)
	}
	d, err := sp.PutStable(key, data)
	if err != nil {
		return err
	}
	c.advanceBytes("s3-write", d, int64(len(data)))
	return nil
}
