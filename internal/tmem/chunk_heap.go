//go:build !unix || race

package tmem

// heapChunks reports whether frame chunks live on the Go heap.
const heapChunks = true

// allocChunk returns n zeroed bytes on the Go heap. Without mmap, and under
// the race detector, which shadows heap memory but not foreign mappings,
// frames stay on the heap and the collector frees them.
func allocChunk(n int) []byte { return make([]byte, n) }

// freeChunk leaves b to the collector.
func freeChunk([]byte) {}
