package sparse

import "math"

// Approximate minimum degree ordering (Amestoy, Davis & Duff, SIAM J. Matrix
// Anal. Appl. 17(4), 1996; the quotient-graph formulation follows Davis,
// Direct Methods for Sparse Linear Systems, SIAM 2006, §7.1). Elimination is
// simulated on a quotient graph: eliminated variables become elements, a
// variable's adjacency is its element list followed by its remaining variable
// neighbours, and elements reachable through a newer element are absorbed
// into it, so the graph never grows beyond its initial storage plus elbow
// room. Degrees are the AMD approximate external degrees (an upper bound on
// the true degree), indistinguishable variables are merged into
// supervariables through a hash of their lists, and rows denser than
// max(16, 10·√n) are postponed to the end. The pivot is the variable of
// least approximate degree, ties broken by the lowest index, and the final
// order is a postorder of the assembly tree — so the result is a pure
// function of the sparsity pattern.

// amdFlip encodes a tree parent (or a live object's storage offset during
// compaction) as a negative number; amdFlip(amdFlip(i)) == i, amdFlip(-1) == -1.
func amdFlip(i int) int { return -i - 2 }

// AMD computes an approximate minimum degree ordering of the symmetrized
// sparsity pattern of the square matrix a (pattern of A + Aᵀ, diagonal
// ignored). The returned slice maps new index → old index, like RCM.
func AMD(a *CSR) []int {
	n := a.R
	if n == 0 {
		return []int{}
	}
	adj := symAdjacency(a)
	cnz := 0
	for _, r := range adj {
		cnz += len(r)
	}

	// Object j (a variable's list, or an element's member variables) lives
	// in iw[pe[j] : pe[j]+ln[j]]; a variable's first elen[j] entries are
	// elements. Index n is a virtual element collecting the dense rows.
	iw := make([]int, cnz+cnz/5+2*n)
	pe := make([]int, n+1)
	ln := make([]int, n+1)
	p := 0
	for i, r := range adj {
		pe[i], ln[i] = p, len(r)
		p += copy(iw[p:], r)
	}

	dense := int(10 * math.Sqrt(float64(n)))
	if dense < 16 {
		dense = 16
	}
	if dense > n-2 {
		dense = n - 2
	}

	nv := make([]int, n+1)     // supervariable size; 0 once absorbed, negated while in the new element
	elen := make([]int, n+1)   // element-list length; −1 dead variable, −2 element
	degree := make([]int, n+1) // approximate external degree (|Le| for elements)
	w := make([]int, n+1)      // set-difference marks; 0 marks a dead element
	next := make([]int, n+1)   // hash-bucket chain
	hashOf := make([]int, n+1)
	hhead := make([]int, n+1)
	for i := 0; i <= n; i++ {
		hhead[i] = -1
		nv[i] = 1
		w[i] = 1
		degree[i] = ln[i]
	}
	mark := amdClear(0, 0, w, n)
	elen[n] = -2
	pe[n] = -1
	w[n] = 0

	q := amdHeap{pos: make([]int32, n)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	nel := 0
	for i := 0; i < n; i++ {
		switch d := degree[i]; {
		case d == 0: // isolated: an element of its own, a root of the tree
			elen[i] = -2
			nel++
			pe[i] = -1
			w[i] = 0
		case d > dense: // dense row: postponed into the virtual element n
			nv[i] = 0
			elen[i] = -1
			nel++
			pe[i] = amdFlip(n)
			nv[n]++
		default:
			q.push(d, i)
		}
	}

	lemax := 0
	for nel < n {
		k := q.pop()
		elenk := elen[k]
		nvk := nv[k]
		nel += nvk

		// The new element is built past cnz; degree[k] bounds its size.
		if elenk > 0 && cnz+degree[k] >= len(iw) {
			cnz = amdCompact(pe, iw, ln, n, cnz)
			if cnz+degree[k] >= len(iw) {
				//lint:ignore allocsite safety net: storage grows only when compaction frees too little
				iw = append(iw, make([]int, cnz+degree[k]+1-len(iw)+n)...)
			}
		}

		// --- Construct the new element Lk from k's elements and variables.
		dk := 0
		nv[k] = -nvk
		p := pe[k]
		pk1 := p
		if elenk != 0 {
			pk1 = cnz
		}
		pk2 := pk1
		for k1 := 1; k1 <= elenk+1; k1++ {
			var e, pj, lnE int
			if k1 > elenk {
				e, pj, lnE = k, p, ln[k]-elenk
			} else {
				e = iw[p]
				p++
				pj, lnE = pe[e], ln[e]
			}
			for k2 := 1; k2 <= lnE; k2++ {
				i := iw[pj]
				pj++
				nvi := nv[i]
				if nvi <= 0 {
					continue // dead, or already in Lk
				}
				dk += nvi
				nv[i] = -nvi
				iw[pk2] = i
				pk2++
			}
			if e != k {
				pe[e] = amdFlip(k) // absorb e into k
				w[e] = 0
			}
		}
		if elenk != 0 {
			cnz = pk2
		}
		degree[k] = dk
		pe[k] = pk1
		ln[k] = pk2 - pk1
		elen[k] = -2

		// --- Set differences |Le \ Lk| for every element adjacent to Lk.
		mark = amdClear(mark, lemax, w, n)
		for pk := pk1; pk < pk2; pk++ {
			i := iw[pk]
			eln := elen[i]
			if eln <= 0 {
				continue
			}
			nvi := -nv[i]
			wnvi := mark - nvi
			for p := pe[i]; p <= pe[i]+eln-1; p++ {
				e := iw[p]
				if w[e] >= mark {
					w[e] -= nvi
				} else if w[e] != 0 {
					w[e] = degree[e] + wnvi
				}
			}
		}

		// --- Approximate degree update, pruning and absorption.
		for pk := pk1; pk < pk2; pk++ {
			i := iw[pk]
			p1 := pe[i]
			p2 := p1 + elen[i] - 1
			pn := p1
			h, d := 0, 0
			for p := p1; p <= p2; p++ {
				e := iw[p]
				if w[e] == 0 {
					continue
				}
				if dext := w[e] - mark; dext > 0 {
					d += dext
					iw[pn] = e
					pn++
					h += e
				} else {
					pe[e] = amdFlip(k) // aggressive absorption: Le ⊆ Lk
					w[e] = 0
				}
			}
			elen[i] = pn - p1 + 1
			p3 := pn
			p4 := p1 + ln[i]
			for p := p2 + 1; p < p4; p++ {
				j := iw[p]
				nvj := nv[j]
				if nvj <= 0 {
					continue
				}
				d += nvj
				iw[pn] = j
				pn++
				h += j
			}
			if d == 0 {
				// Mass elimination: i is adjacent to Lk only.
				q.remove(i)
				pe[i] = amdFlip(k)
				nvi := -nv[i]
				dk -= nvi
				nvk += nvi
				nel += nvi
				nv[i] = 0
				elen[i] = -1
				continue
			}
			degree[i] = min(degree[i], d)
			iw[pn] = iw[p3] // k becomes the first element of i
			iw[p3] = iw[p1]
			iw[p1] = k
			ln[i] = pn - p1 + 1
			h %= n
			next[i] = hhead[h]
			hhead[h] = i
			hashOf[i] = h
		}
		degree[k] = dk
		lemax = max(lemax, dk)
		mark = amdClear(mark+lemax, lemax, w, n)

		// --- Supervariable detection: merge variables with identical lists.
		for pk := pk1; pk < pk2; pk++ {
			i := iw[pk]
			if nv[i] >= 0 {
				continue
			}
			h := hashOf[i]
			i = hhead[h]
			hhead[h] = -1
			for ; i != -1 && next[i] != -1; i, mark = next[i], mark+1 {
				lnI, elnI := ln[i], elen[i]
				for p := pe[i] + 1; p <= pe[i]+lnI-1; p++ {
					w[iw[p]] = mark
				}
				jlast := i
				for j := next[i]; j != -1; {
					ok := ln[j] == lnI && elen[j] == elnI
					for p := pe[j] + 1; ok && p <= pe[j]+lnI-1; p++ {
						if w[iw[p]] != mark {
							ok = false
						}
					}
					if ok {
						q.remove(j)
						pe[j] = amdFlip(i) // absorb j into i
						nv[i] += nv[j]
						nv[j] = 0
						elen[j] = -1
						j = next[j]
						next[jlast] = j
					} else {
						jlast = j
						j = next[j]
					}
				}
			}
		}

		// --- Finalize Lk: external degrees, back into the degree heap.
		p = pk1
		for pk := pk1; pk < pk2; pk++ {
			i := iw[pk]
			nvi := -nv[i]
			if nvi <= 0 {
				continue
			}
			nv[i] = nvi
			degree[i] = min(degree[i]+dk-nvi, n-nel-nvi)
			q.update(degree[i], i)
			iw[p] = i
			p++
		}
		nv[k] = nvk
		if ln[k] = p - pk1; ln[k] == 0 {
			pe[k] = -1
			w[k] = 0
		}
		if elenk != 0 {
			cnz = p
		}
	}

	// --- Postorder the assembly tree: children in ascending index, elements
	// before absorbed variables, roots in ascending index with n last.
	for i := 0; i < n; i++ {
		pe[i] = amdFlip(pe[i])
	}
	head := hhead
	for j := range head {
		head[j] = -1
	}
	for j := n; j >= 0; j-- {
		if nv[j] > 0 {
			continue
		}
		next[j] = head[pe[j]]
		head[pe[j]] = j
	}
	for e := n; e >= 0; e-- {
		if nv[e] <= 0 || pe[e] == -1 {
			continue
		}
		next[e] = head[pe[e]]
		head[pe[e]] = e
	}
	order := make([]int, 0, n+1)
	stack := w
	for i := 0; i <= n; i++ {
		if pe[i] != -1 {
			continue
		}
		stack[0] = i
		for top := 0; top >= 0; {
			p := stack[top]
			if c := head[p]; c != -1 {
				head[p] = next[c]
				top++
				stack[top] = c
				continue
			}
			top--
			order = append(order, p)
		}
	}
	return order[:n] // the virtual element n is the last root, hence last
}

// amdClear resets the live marks in w when mark would wrap (or at start),
// returning a mark above every w entry.
func amdClear(mark, lemax int, w []int, n int) int {
	if mark < 2 || mark+lemax < 0 {
		for k := 0; k < n; k++ {
			if w[k] != 0 {
				w[k] = 1
			}
		}
		mark = 2
	}
	return mark
}

// amdCompact garbage-collects the quotient-graph storage: live objects are
// slid to the front of iw in storage order, and the new free offset returned.
func amdCompact(pe, iw, ln []int, n, cnz int) int {
	for j := 0; j < n; j++ {
		if p := pe[j]; p >= 0 {
			pe[j] = iw[p] // save the first entry; tag the object's start
			iw[p] = amdFlip(j)
		}
	}
	q := 0
	for p := 0; p < cnz; {
		j := amdFlip(iw[p])
		p++
		if j < 0 {
			continue
		}
		iw[q] = pe[j]
		pe[j] = q
		q++
		if rest := ln[j] - 1; rest > 0 {
			q += copy(iw[q:q+rest], iw[p:p+rest])
			p += rest
		}
	}
	return q
}

// amdHeap is an indexed binary min-heap of (degree, variable) keys packed
// into one uint64, so the pivot choice is the least degree with lowest-index
// tie-breaking. A variable keeps its slot while it sits in the new element:
// no pivot is drawn until the element is finished, and update then moves
// it by its new degree.
type amdHeap struct {
	h   []uint64
	pos []int32 // variable → slot, −1 when absent
}

func amdKey(d, i int) uint64 { return uint64(d)<<32 | uint64(i) }

func (q *amdHeap) push(d, i int) {
	q.h = append(q.h, amdKey(d, i))
	q.pos[i] = int32(len(q.h) - 1)
	q.up(len(q.h) - 1)
}

// pop removes and returns the variable of least key.
func (q *amdHeap) pop() int {
	i := int(q.h[0] & 0xffffffff)
	q.remove(i)
	return i
}

// update re-keys variable i to degree d.
func (q *amdHeap) update(d, i int) {
	s := int(q.pos[i])
	old := q.h[s]
	q.h[s] = amdKey(d, i)
	if q.h[s] < old {
		q.up(s)
	} else {
		q.down(s)
	}
}

func (q *amdHeap) remove(i int) {
	s := int(q.pos[i])
	if s < 0 {
		return
	}
	q.pos[i] = -1
	last := len(q.h) - 1
	moved := q.h[last]
	q.h = q.h[:last]
	if s == last {
		return
	}
	q.h[s] = moved
	q.pos[moved&0xffffffff] = int32(s)
	q.up(s)
	q.down(int(q.pos[moved&0xffffffff]))
}

func (q *amdHeap) up(s int) {
	h := q.h
	key := h[s]
	for s > 0 {
		parent := (s - 1) / 2
		if h[parent] <= key {
			break
		}
		h[s] = h[parent]
		q.pos[h[s]&0xffffffff] = int32(s)
		s = parent
	}
	h[s] = key
	q.pos[key&0xffffffff] = int32(s)
}

func (q *amdHeap) down(s int) {
	h := q.h
	key := h[s]
	for {
		c := 2*s + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if key <= h[c] {
			break
		}
		h[s] = h[c]
		q.pos[h[s]&0xffffffff] = int32(s)
		s = c
	}
	h[s] = key
	q.pos[key&0xffffffff] = int32(s)
}
