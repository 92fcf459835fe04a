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
	queue   sim.FIFO[coreItem]
	running bool
	busy    sim.Duration // accumulated busy time
	// done is the in-flight item's completion callback, fired by finish.
	done func()
	// drainFn and finishFn are drain and finish bound once, so the core
	// schedules no fresh closure per work item.
	drainFn, finishFn func()
}

type coreItem struct {
	work func() sim.Duration
	done func()
}

// NewCore returns an idle core.
func NewCore(eng *sim.Engine) *Core {
	c := &Core{eng: eng}
	c.drainFn, c.finishFn = c.drain, c.finish
	return c
}

// Do enqueues work. work runs when the core reaches it and returns the CPU
// time consumed; done (optional) fires after that time has elapsed.
func (c *Core) Do(work func() sim.Duration, done func()) {
	c.queue.Push(coreItem{work, done})
	if !c.running {
		c.running = true
		c.eng.After(0, c.drainFn)
	}
}

func (c *Core) drain() {
	if c.queue.Len() == 0 {
		c.running = false
		return
	}
	item := c.queue.Pop()
	cost := item.work()
	if cost < 0 {
		cost = 0
	}
	c.busy += cost
	c.done = item.done
	c.eng.After(cost, c.finishFn)
}

// finish fires the in-flight item's done, then takes the next item.
func (c *Core) finish() {
	done := c.done
	c.done = nil
	if done != nil {
		done()
	}
	c.drain()
}

// BusyTime returns the total CPU time consumed so far.
func (c *Core) BusyTime() sim.Duration { return c.busy }

// QueueLen returns the number of pending work items.
func (c *Core) QueueLen() int { return c.queue.Len() }

// Busy reports whether the core is currently executing work.
func (c *Core) Busy() bool { return c.running }
