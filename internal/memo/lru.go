package memo

// A true least-recently-used bounded map: lookups refresh recency, so a hot
// entry survives arbitrarily many insertions while cold entries age out.
// This is deliberately not a FIFO, under which a hot entry is evicted as
// readily as a cold one. The execution cache is built on this core.
//
// The zero value is not usable; construct with NewLRU. An LRU is not
// goroutine-safe — callers hold their own lock, which lets them batch a
// lookup and an inflight-map update under one critical section.

import "container/list"

// lruItem is the payload of one list element.
type lruItem[K comparable, V any] struct {
	key K
	val V
}

// LRU is a bounded map with least-recently-used eviction.
type LRU[K comparable, V any] struct {
	capacity int
	ll       *list.List // front = most recent
	items    map[K]*list.Element
	onEvict  func(K, V) // optional eviction hook (metrics)
}

// NewLRU returns an LRU holding at most capacity entries; onEvict, when
// non-nil, observes every evicted entry. Capacity must be positive.
func NewLRU[K comparable, V any](capacity int, onEvict func(K, V)) *LRU[K, V] {
	if capacity <= 0 {
		panic("memo: LRU capacity must be positive")
	}
	return &LRU[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element),
		onEvict:  onEvict,
	}
}

// Get returns the value for key and marks it most recently used.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruItem[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Peek returns the value for key without refreshing its recency — the
// probe behind Cache.Has.
func (l *LRU[K, V]) Peek(key K) (V, bool) {
	if el, ok := l.items[key]; ok {
		return el.Value.(*lruItem[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts (or updates) key as the most recently used entry, evicting the
// least recently used one when the cache is full.
func (l *LRU[K, V]) Add(key K, val V) {
	if el, ok := l.items[key]; ok {
		el.Value.(*lruItem[K, V]).val = val
		l.ll.MoveToFront(el)
		return
	}
	l.items[key] = l.ll.PushFront(&lruItem[K, V]{key: key, val: val})
	if l.ll.Len() > l.capacity {
		oldest := l.ll.Back()
		it := oldest.Value.(*lruItem[K, V])
		l.ll.Remove(oldest)
		delete(l.items, it.key)
		if l.onEvict != nil {
			l.onEvict(it.key, it.val)
		}
	}
}

// Len returns the number of live entries.
func (l *LRU[K, V]) Len() int { return l.ll.Len() }

// Cap returns the configured bound.
func (l *LRU[K, V]) Cap() int { return l.capacity }
