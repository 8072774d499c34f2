//go:build unix && !race

package tmem

import "syscall"

// heapChunks reports whether frame chunks live on the Go heap.
const heapChunks = false

// allocChunk maps n zeroed bytes of anonymous memory outside the Go heap.
// A failed mapping is out of memory, which a make would not survive either.
func allocChunk(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("tmem: mapping a frame chunk: " + err.Error())
	}
	return b
}

// freeChunk unmaps a chunk allocChunk returned.
func freeChunk(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("tmem: unmapping a frame chunk: " + err.Error())
	}
}
