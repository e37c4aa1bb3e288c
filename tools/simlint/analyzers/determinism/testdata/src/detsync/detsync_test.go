package detsync

import (
	"sync"
	"testing"
)

func TestInitOnce(t *testing.T) {
	var wg sync.WaitGroup
	n := 0
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Init(func() { n++ })
		}()
	}
	wg.Wait()
	if n != 1 {
		t.Fatalf("Init ran %d times, want 1", n)
	}
}
