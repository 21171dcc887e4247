package repro.core

import scala.collection.mutable

/** Incremental state of a candidate set S for a fixed query vector x, giving
  * O(l·d) marginal-gain evaluation Δ(e|S) and O(l·d) insertion — the costs
  * the paper's complexity analyses assume. A gain allocates nothing.
  *
  * Per query topic i it tracks:
  *  - the best covered weight `max_{e∈S} σ_i(w,e)` per word (Equation 3);
  *  - per influenced element c, the complement product
  *    `Π_{e'∈S∩c.ref} (1 − p_i(e'⇝c))`, so that adding e with propagation
  *    probability p contributes `prod·p` to `I_{i,t}` (Equation 4).
  *
  * A query naming a topic outside [0, z) is rejected on construction.
  */
final class CandidateState private (
    engine: KSirEngine,
    val q: QueryVector,
    // One map per non-zero query entry, keyed by word id.
    covered: Array[LongDoubleMap],
    // One map per non-zero query entry, keyed by influenced child id.
    prodComp: Array[LongDoubleMap],
    memberIds: mutable.ArrayBuffer[Long],
    private var fScore: Double
) extends CandidateView {

  /** The empty state S = ∅. */
  def this(engine: KSirEngine, q: QueryVector) = {
    this(engine, q, Array.fill(q.d)(new LongDoubleMap), Array.fill(q.d)(new LongDoubleMap), mutable.ArrayBuffer.empty[Long], 0.0)
    engine.requireQueryTopics(q)
  }

  private val lambda = engine.lambda
  private val etaInv = (1.0 - engine.lambda) / engine.eta

  def members: Seq[Long] = memberIds.toSeq
  def size: Int = memberIds.length
  def score: Double = fScore

  /** An independent state with the same members, coverage and f(S, x). */
  def copy(): CandidateState =
    new CandidateState(engine, q, covered.map(_.copy()), prodComp.map(_.copy()), memberIds.clone(), fScore)

  /** Δ(e|S) = f(S ∪ {e}, x) − f(S, x). Does not mutate state. */
  def gain(ae: ActiveElement): Double = marginal(ae, commit = false)

  /** Add e to S, updating coverage state and the cached f(S, x).
    * Idempotent: S is a set, so re-adding a member is a no-op.
    */
  def add(ae: ActiveElement): Unit = {
    if (memberIds.contains(ae.elem.id)) return
    fScore += marginal(ae, commit = true)
    memberIds += ae.elem.id
  }

  /** Δ(e|S); with `commit`, also records e's coverage in the state. */
  private def marginal(ae: ActiveElement, commit: Boolean): Double = {
    val qTopic = q.entries.idx
    val qX = q.entries.v
    val topics = ae.topics
    val words = ae.wordIds
    val childP = ae.childP
    val stride = topics.idx.length
    val childIdTs = ae.childIdTs
    val nChildren = ae.childCount
    var total = 0.0
    var qi = 0
    while (qi < qTopic.length) {
      val j = topics.indexOf(qTopic(qi))
      if (j >= 0 && topics.v(j) > 0.0) {
        val pe = topics.v(j)
        val cov = covered(qi)
        val sig = ae.sigma(j)
        var dR = 0.0
        var w = 0
        while (w < sig.length) {
          val s = sig(w)
          val c = cov.getOrElse(words(w), 0.0)
          if (s > c) {
            dR += s - c
            if (commit) cov(words(w)) = s
          }
          w += 1
        }
        val prods = prodComp(qi)
        var dI = 0.0
        var c = 0
        while (c < nChildren) {
          val pc = childP(c * stride + j)
          if (pc > 0.0) {
            val id = childIdTs(2 * c)
            val prod = prods.getOrElse(id, 1.0)
            if (commit) {
              val p = pe * pc
              dI += prod * p
              prods(id) = prod * (1.0 - p)
            } else dI += prod * pe * pc
          }
          c += 1
        }
        total += qX(qi) * (lambda * dR + etaInv * dI)
      }
      qi += 1
    }
    total
  }
}

/** What a reader that does not own a [[CandidateState]] may see of it: a
  * state that several threshold candidates share changes only through
  * [[ThresholdCandidates.offer]].
  */
sealed trait CandidateView {
  def members: Seq[Long]
  def size: Int
  def score: Double
}

/** Hash map from Long keys to Double values by open addressing with linear
  * probing over primitive arrays, so neither lookups nor updates box. Every
  * Long is a valid key: occupancy is kept in its own array, not in a sentinel.
  */
private[core] final class LongDoubleMap {
  private var keys = LongDoubleMap.NoKeys
  private var vals = LongDoubleMap.NoVals
  private var used = LongDoubleMap.NoUsed
  private var shift = 64
  private var n = 0

  def size: Int = n

  def contains(key: Long): Boolean = {
    if (n == 0) return false
    var i = slot(key)
    while (used(i)) {
      if (keys(i) == key) return true
      i = (i + 1) & (keys.length - 1)
    }
    false
  }

  def getOrElse(key: Long, default: Double): Double = {
    if (n == 0) return default
    var i = slot(key)
    while (used(i)) {
      if (keys(i) == key) return vals(i)
      i = (i + 1) & (keys.length - 1)
    }
    default
  }

  def update(key: Long, value: Double): Unit = {
    if (keys.length == 0) resize(8)
    var i = slot(key)
    while (used(i)) {
      if (keys(i) == key) { vals(i) = value; return }
      i = (i + 1) & (keys.length - 1)
    }
    used(i) = true; keys(i) = key; vals(i) = value
    n += 1
    if (2 * n > keys.length) resize(2 * keys.length)
  }

  /** Deletes `key` if present, by backward shift: each later entry of the
    * probe run that may sit in the gap moves into it, so no tombstones are left.
    */
  def remove(key: Long): Unit = {
    if (n == 0) return
    val mask = keys.length - 1
    var gap = slot(key)
    while (used(gap) && keys(gap) != key) gap = (gap + 1) & mask
    if (!used(gap)) return
    var j = (gap + 1) & mask
    while (used(j)) {
      // The entry at j may fill the gap unless its home slot lies after the
      // gap on its probe run.
      if (((j - slot(keys(j))) & mask) >= ((j - gap) & mask)) {
        keys(gap) = keys(j); vals(gap) = vals(j)
        gap = j
      }
      j = (j + 1) & mask
    }
    used(gap) = false
    n -= 1
  }

  /** An independent map with the same entries: both can change without the other. */
  def copy(): LongDoubleMap = {
    val m = new LongDoubleMap
    if (n > 0) {
      m.keys = keys.clone
      m.vals = vals.clone
      m.used = used.clone
      m.shift = shift
      m.n = n
    }
    m
  }

  /** Fibonacci hashing: the top bits of key·2⁶⁴/φ, which mix every key bit. */
  private def slot(key: Long): Int = ((key * 0x9e3779b97f4a7c15L) >>> shift).toInt

  private def resize(capacity: Int): Unit = {
    val oldKeys = keys
    val oldVals = vals
    val oldUsed = used
    keys = new Array[Long](capacity)
    vals = new Array[Double](capacity)
    used = new Array[Boolean](capacity)
    shift = 64 - Integer.numberOfTrailingZeros(capacity)
    n = 0
    var i = 0
    while (i < oldKeys.length) {
      if (oldUsed(i)) update(oldKeys(i), oldVals(i))
      i += 1
    }
  }
}

private object LongDoubleMap {
  private val NoKeys = new Array[Long](0)
  private val NoVals = new Array[Double](0)
  private val NoUsed = new Array[Boolean](0)
}

/** Result of one k-SIR query execution, with the instrumentation the paper's
  * efficiency figures report: how many distinct elements were evaluated
  * (marginal-gain computations touch them) and how many were retrieved from
  * the ranked lists.
  */
final case class KSirResult(elements: Seq[Long], score: Double, evaluated: Int, retrieved: Int)

/** Traversal state over the ranked lists RL_i for the topics with x_i > 0:
  * the `RL_i.first` / `RL_i.next` operations of §4.1, including the
  * cross-list "visited" marking so each element is retrieved at most once,
  * and the bound on what is left. Each list is walked by (chunk, slot); only
  * a list's head is looked up in A_t. The lists must not change while it is
  * in use. A query naming a topic outside [0, z) is rejected on construction.
  */
final class RankedListCursor(engine: KSirEngine, q: QueryVector) {
  engine.requireQueryTopics(q)

  private val d = q.d
  private val x = q.entries.v
  private val lists: Array[RankedList] = q.entries.idx.map(engine.list)
  private val chunkAt = new Array[Int](d)
  // Slot of each list's head in its chunk; -1 before the first entry.
  private val slotAt = Array.fill(d)(-1)
  // Current head of each list: its term x_i·δ_i(e) and e, or null when
  // exhausted.
  private val headTerm = new Array[Double](d)
  private val head = new Array[ActiveElement](d)
  // An element sits once in each list, so one list needs no visited set.
  private val visited: LongDoubleMap = if (d > 1) new LongDoubleMap else null
  var retrievedCount: Int = 0

  (0 until d).foreach(advanceList)

  // The maximal sets of lists that some active element's support covers, as
  // bitmasks over list slots; for d > TopicModel.MaxTopics the one pattern
  // is every list (−1). Covered sets are closed under taking subsets,
  // so a set is covered only if it is without its lowest list, and maximal
  // when no one-list extension of it is covered.
  private val patterns: Array[Int] =
    if (d > TopicModel.MaxTopics) Array(-1)
    else {
      val covered = new Array[Boolean](1 << d)
      var mask = 1
      while (mask < covered.length) {
        covered(mask) =
          if ((mask & (mask - 1)) == 0) head(Integer.numberOfTrailingZeros(mask)) != null
          else covered(mask & (mask - 1)) && engine.subsetCount(q.entries.idx, mask) > 0
        mask += 1
      }
      val maximal = new Array[Int](covered.length)
      var n = 0
      mask = 1
      while (mask < covered.length) {
        if (covered(mask)) {
          var j = 0
          while (j < d && ((mask & (1 << j)) != 0 || !covered(mask | (1 << j)))) j += 1
          if (j == d) { maximal(n) = mask; n += 1 }
        }
        mask += 1
      }
      java.util.Arrays.copyOf(maximal, n)
    }

  private def advanceList(j: Int): Unit = {
    val list = lists(j)
    var c = chunkAt(j)
    var p = slotAt(j)
    var next: ActiveElement = null
    while (next == null && c < list.chunkCount) {
      val ch = list.chunk(c)
      p += 1
      if (p == ch.n) { c += 1; p = -1 }
      else if (visited == null || !visited.contains(ch.ids(p))) {
        next = engine.activeOrNull(ch.ids(p))
        headTerm(j) = x(j) * ch.scores(p)
      }
    }
    chunkAt(j) = c
    slotAt(j) = p
    head(j) = next
  }

  /** The paper's UB(x) = Σ_i x_i·δ_i(e^(i)) over the live heads (§4.1). */
  def paperUpperBound: Double = patternSum(-1)

  /** Upper bound on δ(e, x) of any unretrieved element e: the largest pattern
    * sum over the live heads (DESIGN §6e). e sits only on the lists of its
    * support P, and some pattern holds P's queried lists; each of e's terms
    * is at most the head term of its list, summed in the same order, so the
    * bound is at least δ(e, x) bit for bit. For d > `TopicModel.MaxTopics`
    * it is [[paperUpperBound]]. Allocates nothing.
    */
  def upperBound: Double = {
    var ub = 0.0
    var p = 0
    while (p < patterns.length) { ub = math.max(ub, patternSum(patterns(p))); p += 1 }
    ub
  }

  /** Σ x_j·δ_j(e^(j)) over the live heads of the lists j in `mask`, in list
    * order, as `deltaScore` sums δ(e, x); −1 names every list, for any d.
    */
  private def patternSum(mask: Int): Double = {
    var s = 0.0
    var j = 0
    while (j < d) {
      if ((mask & (1 << j)) != 0 && head(j) != null) s += headTerm(j)
      j += 1
    }
    s
  }

  def exhausted: Boolean = {
    var j = 0
    while (j < d) { if (head(j) != null) return false; j += 1 }
    true
  }

  /** Pop the element with the maximum x_i·δ_i(e^(i)) across lists, marking it
    * visited in every list. Returns null when all lists are exhausted.
    */
  def popMax(): ActiveElement = {
    var best = -1
    var bestVal = -1.0
    var j = 0
    while (j < d) {
      if (head(j) != null) {
        val v = headTerm(j)
        if (v > bestVal) { bestVal = v; best = j }
      }
      j += 1
    }
    if (best < 0) return null
    val ae = head(best)
    if (visited != null) visited(ae.elem.id) = 0.0
    retrievedCount += 1
    // The popped element may also be the head of other lists: skip it there.
    var i = 0
    while (i < d) {
      if (head(i) eq ae) advanceList(i)
      i += 1
    }
    ae
  }
}
