package index

import (
	"fmt"
	"math"
	"math/rand"

	"pane/internal/core"
	"pane/internal/mat"
)

// IVFConfig tunes BuildIVF. Zero values pick defaults scaled to the
// candidate count n.
type IVFConfig struct {
	// NList is the number of coarse clusters (inverted lists). 0 means
	// round(sqrt(n)); values are clamped to [1, n].
	NList int
	// NProbe is the default number of lists scanned per search, clamped
	// to [1, NList]. 0 means max(1, NList/8) — roughly an 8x reduction in
	// scanned candidates at high recall on clustered data.
	NProbe int
	// Iters is the number of Lloyd iterations on the training sample.
	// 0 means 10.
	Iters int
	// Sample caps the k-means training set; training on a sample and then
	// assigning all candidates in one parallel pass keeps builds cheap on
	// large n. 0 means 64·NList.
	Sample int
	// Seed drives sampling and seeding; builds are deterministic in
	// (data, config).
	Seed int64
	// Threads is the build/search parallelism; <= 1 runs serially.
	Threads int
}

// IVF is the approximate backend: candidates are partitioned into
// inverted lists by a k-means coarse quantizer, and a search scans only
// the nprobe lists whose centroids have the largest inner product with
// the query. Probing all lists degenerates to the exact answer.
type IVF struct {
	dim      int
	n        int
	nprobe   int
	threads  int
	cents    *mat.Dense   // nlist x dim centroids
	ids      [][]int32    // per-list candidate ids, ascending
	vecs     []*mat.Dense // per-list contiguous candidate vectors (row j = ids[j])
	assigned []int32      // per-row home list (assigned[i] = list of candidate i)
}

// BuildIVF clusters data (one candidate per row) into an inverted file.
// data is copied list-by-list, so the caller may keep using it; builds
// with the same data and config are bit-for-bit reproducible.
func BuildIVF(data *mat.Dense, cfg IVFConfig) *IVF {
	n, dim := data.Rows, data.Cols
	nlist := cfg.NList
	if nlist <= 0 {
		nlist = int(math.Round(math.Sqrt(float64(n))))
	}
	if nlist < 1 {
		nlist = 1
	}
	if nlist > n {
		nlist = n
	}
	nprobe := cfg.NProbe
	if nprobe <= 0 {
		nprobe = nlist / 8
	}
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > nlist {
		nprobe = nlist
	}
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	iv := &IVF{dim: dim, n: n, nprobe: nprobe, threads: threads}
	if n == 0 {
		iv.cents = mat.New(0, dim)
		return iv
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = 10
	}
	sample := cfg.Sample
	if sample <= 0 {
		sample = 64 * nlist
	}
	if sample < nlist {
		sample = nlist
	}

	// Training sample: all rows when small, otherwise a seeded uniform
	// subset. The permutation also provides distinct initial centroid
	// positions (distinct rows, not necessarily distinct values).
	rng := rand.New(rand.NewSource(cfg.Seed))
	train := make([]int, 0, sample)
	if n <= sample {
		for i := 0; i < n; i++ {
			train = append(train, i)
		}
	} else {
		train = rng.Perm(n)[:sample]
	}
	iv.cents = mat.New(nlist, dim)
	for c := 0; c < nlist; c++ {
		copy(iv.cents.Row(c), data.Row(train[c%len(train)]))
	}

	// Lloyd iterations on the sample: parallel nearest-centroid
	// assignment (by L2 distance), serial centroid recomputation so the
	// reduction order — and therefore the result — is fixed.
	assignTrain := make([]int32, len(train))
	for it := 0; it < iters; it++ {
		iv.assign(data, train, assignTrain)
		counts := make([]int, nlist)
		sums := mat.New(nlist, dim)
		for j, row := range train {
			c := assignTrain[j]
			counts[c]++
			mat.AxpyVec(1, data.Row(row), sums.Row(int(c)))
		}
		for c := 0; c < nlist; c++ {
			if counts[c] == 0 {
				continue // empty cluster keeps its previous centroid
			}
			dst := iv.cents.Row(c)
			src := sums.Row(c)
			inv := 1 / float64(counts[c])
			for d := range dst {
				dst[d] = src[d] * inv
			}
		}
	}

	// Final pass: assign every candidate and materialize the lists with
	// contiguous vector copies for cache-friendly scans.
	assign := make([]int32, n)
	iv.assign(data, nil, assign)
	iv.populate(data, assign)
	return iv
}

// populate materializes the inverted lists of iv from a complete per-row
// assignment: per-list ascending id lists plus contiguous vector copies
// (row j of vecs[l] = data row ids[l][j]). The assignment is retained so
// an incremental Refresh knows each row's previous home list.
func (iv *IVF) populate(data *mat.Dense, assign []int32) {
	nlist := iv.cents.Rows
	counts := make([]int, nlist)
	for _, c := range assign {
		counts[c]++
	}
	iv.assigned = assign
	iv.ids = make([][]int32, nlist)
	iv.vecs = make([]*mat.Dense, nlist)
	for c := 0; c < nlist; c++ {
		iv.ids[c] = make([]int32, 0, counts[c])
		iv.vecs[c] = mat.New(counts[c], iv.dim)
	}
	for i := range assign {
		c := assign[i]
		copy(iv.vecs[c].Row(len(iv.ids[c])), data.Row(i))
		iv.ids[c] = append(iv.ids[c], int32(i))
	}
}

// Rebuild re-indexes data (same shape as the build data) against iv's
// existing coarse quantizer: every row is reassigned to its nearest
// centroid and the inverted lists are rebuilt, sharing only the
// centroids. It is the frozen-quantizer full build an incremental Refresh
// must reproduce bit for bit — retraining the quantizer is a build-time
// decision (BuildIVF), not a refresh-time one, exactly as inverted-file
// systems keep a trained coarse quantizer across vector updates.
func (iv *IVF) Rebuild(data *mat.Dense) *IVF {
	if data.Cols != iv.dim {
		panic(fmt.Sprintf("index: IVF rebuild dim %d does not match index dim %d", data.Cols, iv.dim))
	}
	out := &IVF{dim: iv.dim, n: data.Rows, nprobe: iv.nprobe, threads: iv.threads, cents: iv.cents}
	assign := make([]int32, data.Rows)
	out.assign(data, nil, assign)
	out.populate(data, assign)
	return out
}

// Refresh returns an index over data in which only the listed dirty rows
// (ascending global ids) have been re-examined: each is reassigned to its
// nearest centroid, and only the inverted lists a dirty row left, joined,
// or stayed in are rebuilt — every untouched list shares its id and
// vector storage with this index. The caller contracts that every row NOT
// listed is value-identical to the row this index holds; under that
// contract the result is bit-identical to Rebuild(data) at O(|dirty| ·
// nlist + affected-list rows) cost instead of O(n · nlist).
func (iv *IVF) Refresh(data *mat.Dense, dirty []int) *IVF {
	if data.Rows != iv.n || data.Cols != iv.dim {
		panic(fmt.Sprintf("index: IVF refresh data %dx%d does not match index n=%d dim=%d",
			data.Rows, data.Cols, iv.n, iv.dim))
	}
	if len(dirty) == 0 {
		return iv
	}
	for j, r := range dirty {
		if r < 0 || r >= iv.n || (j > 0 && dirty[j-1] >= r) {
			panic(fmt.Sprintf("index: IVF refresh dirty rows must be ascending ids in [0,%d)", iv.n))
		}
	}
	newAssign := make([]int32, len(dirty))
	iv.assign(data, dirty, newAssign)

	nlist := iv.cents.Rows
	changed := make([]bool, nlist)
	assigned := append([]int32(nil), iv.assigned...)
	dirtySet := make(map[int32]bool, len(dirty))
	added := make(map[int32][]int32) // per new list, dirty members, ascending
	for j, r := range dirty {
		changed[iv.assigned[r]] = true
		changed[newAssign[j]] = true
		assigned[r] = newAssign[j]
		dirtySet[int32(r)] = true
		added[newAssign[j]] = append(added[newAssign[j]], int32(r))
	}

	out := &IVF{
		dim: iv.dim, n: iv.n, nprobe: iv.nprobe, threads: iv.threads,
		cents: iv.cents, assigned: assigned,
		ids:  make([][]int32, nlist),
		vecs: make([]*mat.Dense, nlist),
	}
	for l := 0; l < nlist; l++ {
		if !changed[l] {
			out.ids[l] = iv.ids[l]
			out.vecs[l] = iv.vecs[l]
			continue
		}
		// Survivors (clean old members, already ascending) merged with the
		// dirty rows now assigned here; vectors copied fresh from data so a
		// dirty row that stayed in its list still gets its new values.
		keep := make([]int32, 0, len(iv.ids[l])+len(added[int32(l)]))
		for _, id := range iv.ids[l] {
			if !dirtySet[id] {
				keep = append(keep, id)
			}
		}
		ids := mergeAscending(keep, added[int32(l)])
		vecs := mat.New(len(ids), iv.dim)
		for j, id := range ids {
			copy(vecs.Row(j), data.Row(int(id)))
		}
		out.ids[l] = ids
		out.vecs[l] = vecs
	}
	return out
}

// mergeAscending merges two ascending, disjoint int32 slices.
func mergeAscending(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// assign writes the nearest centroid (squared L2, ties to the lowest
// centroid index) of each listed row into out. rows == nil means all rows
// of data, with out[i] for row i; otherwise out[j] corresponds to
// rows[j]. Runs in parallel blocks over the rows.
func (iv *IVF) assign(data *mat.Dense, rows []int, out []int32) {
	nlist := iv.cents.Rows
	// Precompute |c|²; argmin over c of |x−c|² = argmin (|c|² − 2·x·c).
	cn := make([]float64, nlist)
	for c := 0; c < nlist; c++ {
		r := iv.cents.Row(c)
		cn[c] = mat.Dot(r, r)
	}
	total := len(out)
	mat.ParallelRanges(total, iv.threads, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := j
			if rows != nil {
				row = rows[j]
			}
			x := data.Row(row)
			best, bestScore := int32(0), math.Inf(1)
			for c := 0; c < nlist; c++ {
				s := cn[c] - 2*mat.Dot(x, iv.cents.Row(c))
				if s < bestScore {
					best, bestScore = int32(c), s
				}
			}
			out[j] = best
		}
	})
}

// Len returns the candidate count.
func (iv *IVF) Len() int { return iv.n }

// Dim returns the vector dimension.
func (iv *IVF) Dim() int { return iv.dim }

// Kind returns KindIVF.
func (iv *IVF) Kind() string { return KindIVF }

// NList returns the number of inverted lists.
func (iv *IVF) NList() int { return iv.cents.Rows }

// DefaultNProbe returns the build-time default probe count.
func (iv *IVF) DefaultNProbe() int { return iv.nprobe }

// Search probes the opt.NProbe (default DefaultNProbe) lists whose
// centroids score highest by inner product with q, then scans only those
// lists. See Index for the result contract; with NProbe == NList the
// answer equals Exact.Search bit for bit.
func (iv *IVF) Search(q []float64, k int, opt Options) []core.Scored {
	if k > iv.n {
		k = iv.n
	}
	if k < 1 || iv.n == 0 {
		return nil
	}
	lists := iv.probeLists(q, opt.NProbe)
	return iv.fanScan(k, lists, func(t *core.TopK, l, lo, hi int) {
		iv.scanList(t, l, lo, hi, q, opt.Skip)
	})
}

// probeLists ranks every centroid by inner product with q — the standard
// probe order for inner-product metrics — and returns the nprobe best
// (<= 0 means the build-time default; above nlist clamps).
func (iv *IVF) probeLists(q []float64, nprobe int) []core.Scored {
	if nprobe <= 0 {
		nprobe = iv.nprobe
	}
	if nprobe > iv.cents.Rows {
		nprobe = iv.cents.Rows
	}
	lt := core.GetTopK(nprobe)
	for c := 0; c < iv.cents.Rows; c++ {
		lt.Offer(c, mat.Dot(q, iv.cents.Row(c)))
	}
	lists := lt.Take()
	core.PutTopK(lt)
	return lists
}

// fanScan runs scan over every row of the probed lists and keeps the k
// best offers. The fan-out is over row-weighted groups of list segments:
// splitting by probed ROW count (not list count) keeps workers balanced
// when list sizes are skewed — one huge cluster cannot serialize the
// search behind a single goroutine — and a segment boundary may fall
// inside a list. Both the float and the quantized list scans share this
// skeleton.
func (iv *IVF) fanScan(k int, lists []core.Scored, scan func(t *core.TopK, l, lo, hi int)) []core.Scored {
	probedRows := 0
	for _, l := range lists {
		probedRows += len(iv.ids[l.ID])
	}
	nb := iv.threads
	if lim := probedRows / minParallelRows; nb > lim {
		nb = lim
	}
	if nb <= 1 {
		t := core.GetTopK(k)
		for _, l := range lists {
			scan(t, l.ID, 0, len(iv.ids[l.ID]))
		}
		res := t.Take()
		core.PutTopK(t)
		return res
	}
	groups := probeGroups(lists, func(l int) int { return len(iv.ids[l]) }, probedRows, nb)
	return mergeSearch(k, len(groups), len(groups), func(t *core.TopK, lo, hi int) {
		for _, g := range groups[lo:hi] {
			for _, seg := range g {
				scan(t, seg.list, seg.lo, seg.hi)
			}
		}
	})
}

// probeSeg is a contiguous row range [lo, hi) of one inverted list.
type probeSeg struct {
	list, lo, hi int
}

// probeGroups packs the probed lists' rows into at most nb groups of
// near-equal row count, splitting within a list where a boundary falls.
func probeGroups(lists []core.Scored, size func(int) int, totalRows, nb int) [][]probeSeg {
	target := (totalRows + nb - 1) / nb
	groups := make([][]probeSeg, 0, nb)
	var cur []probeSeg
	acc := 0
	for _, l := range lists {
		sz := size(l.ID)
		for pos := 0; pos < sz; {
			take := target - acc
			if rem := sz - pos; take > rem {
				take = rem
			}
			cur = append(cur, probeSeg{list: l.ID, lo: pos, hi: pos + take})
			pos += take
			acc += take
			if acc == target {
				groups = append(groups, cur)
				cur, acc = nil, 0
			}
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// scanList offers rows [lo, hi) of list l to t.
func (iv *IVF) scanList(t *core.TopK, l, lo, hi int, q []float64, skip func(int) bool) {
	ids, vecs := iv.ids[l], iv.vecs[l]
	for j := lo; j < hi; j++ {
		id := int(ids[j])
		if skip != nil && skip(id) {
			continue
		}
		t.Offer(id, mat.Dot(q, vecs.Row(j)))
	}
}

// String summarizes the structure for logs.
func (iv *IVF) String() string {
	return fmt.Sprintf("ivf(n=%d dim=%d nlist=%d nprobe=%d)", iv.n, iv.dim, iv.NList(), iv.nprobe)
}
