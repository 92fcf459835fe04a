package host

import (
	"fastsafe/internal/sim"
)

// Core models one CPU core as a serialised work queue: driver and network
// stack work items execute FIFO, each consuming the CPU time its work
// function reports. Per-core utilisation feeds the CPU-bottleneck analysis
// of §4.4 (Figure 8a's F&S gap at large ring sizes).
type Core struct {
	eng     *sim.Engine
	queue   []coreItem
	running bool
	busy    sim.Duration // accumulated busy time
}

type coreItem struct {
	work func() sim.Duration
	done func()
}

// NewCore returns an idle core.
func NewCore(eng *sim.Engine) *Core { return &Core{eng: eng} }

// Do enqueues work. work runs when the core reaches it and returns the CPU
// time consumed; done (optional) fires after that time has elapsed.
func (c *Core) Do(work func() sim.Duration, done func()) {
	c.queue = append(c.queue, coreItem{work, done})
	if !c.running {
		c.running = true
		c.eng.After(0, c.drain)
	}
}

func (c *Core) drain() {
	if len(c.queue) == 0 {
		c.running = false
		return
	}
	item := c.queue[0]
	c.queue = c.queue[1:]
	cost := item.work()
	if cost < 0 {
		cost = 0
	}
	c.busy += cost
	c.eng.After(cost, func() {
		if item.done != nil {
			item.done()
		}
		c.drain()
	})
}

// BusyTime returns the total CPU time consumed so far.
func (c *Core) BusyTime() sim.Duration { return c.busy }

// QueueLen returns the number of pending work items.
func (c *Core) QueueLen() int { return len(c.queue) }

// Busy reports whether the core is currently executing work.
func (c *Core) Busy() bool { return c.running }
