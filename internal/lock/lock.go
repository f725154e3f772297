// Package lock holds the one mutex the task path uses, which knows the
// machine's mode. A seeded machine runs one task at a time on one goroutine
// and fences every other reader with its owner lock, so on its task path a
// mutex orders nothing; a parallel machine's PEs share that path and lock as
// ever. The mode is set once, by the constructor of the structure that
// holds the mutex, and Lock and Unlock are where it is tested.
package lock

import "sync"

// Mutex is a sync.Mutex that a serial owner skips: once SetSerial(true) has
// run, Lock and Unlock do nothing. It is 12 bytes with 4-byte alignment, so
// a 4-byte field that follows it fills what would otherwise be padding.
//
// The embedded mutex stays reachable for in-package tests, which use its
// TryLock to see whether a mode took it.
type Mutex struct {
	sync.Mutex
	serial bool
}

// SetSerial sets the mode. It is called by the constructor of the structure
// that holds m, before anyone else can reach it.
func (m *Mutex) SetSerial(serial bool) { m.serial = serial }

// Serial reports whether Lock and Unlock skip the mutex.
func (m *Mutex) Serial() bool { return m.serial }

// Lock acquires the mutex, unless m is serial.
func (m *Mutex) Lock() {
	if !m.serial {
		m.Mutex.Lock()
	}
}

// Unlock releases what Lock acquired.
func (m *Mutex) Unlock() {
	if !m.serial {
		m.Mutex.Unlock()
	}
}
