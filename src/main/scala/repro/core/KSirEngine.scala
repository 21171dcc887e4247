package repro.core

import scala.collection.mutable

/** An element held in the active window together with all per-topic state the
  * ranked lists need: the static semantic score `R_i(e)`, the word weights
  * `σ_i(w,e)`, and the time-varying singleton influence `I_{i,t}(e)` over
  * its in-window children. Algorithm 1's `t_e`, the last time the element was
  * posted or referred to, is the latest of its own ts and its children's.
  *
  * All per-topic state lives in flat primitive arrays indexed by the topic's
  * slot `j` in `topics` (the element's sparse topic support); see DESIGN §6c.
  * The public constructor builds the word bag; only its ids are kept.
  */
final class ActiveElement private (val elem: Element, bag: SparseVec, model: TopicModel, lambda: Double, eta: Double) {

  def this(elem: Element, model: TopicModel, lambda: Double, eta: Double) =
    this(elem, elem.wordFreqs, model, lambda, eta)

  /** This element's slot in the engine's admission-ordered scan array. */
  private[core] var pos: Int = -1

  /** p_i(e), copied from `elem.topics` so that scans over A_t find it next to
    * the rest of this state in memory, not with the stream's `Element`s.
    */
  val topics: SparseVec = new SparseVec(elem.topics.idx.clone, elem.topics.v.clone)

  /** Distinct word ids in ascending order, shared by every row of [[sigma]]. */
  val wordIds: Array[Int] = bag.idx

  /** σ_i(w,e): `sigma(j)(k)` for topic `topics.idx(j)` and word `wordIds(k)`. */
  val sigma: Array[Array[Double]] = {
    // A loop, not a closure: a closure would capture `this` and keep `bag`
    // and `model` as fields of every element.
    val rows = new Array[Array[Double]](topics.idx.length)
    var j = 0
    while (j < rows.length) { rows(j) = ActiveElement.sigmaRow(model, bag, topics.idx(j), topics.v(j)); j += 1 }
    rows
  }

  // Three doubles per supported topic j at `perTopic(3 * j + _)`: R_i(e)
  // (static), Σ_{c ∈ children} p_i(c) with I_{i,t}(e) = p_i(e)·sum, and δ_i(e)
  // as last written to the ranked lists, so an entry can be found and removed
  // when the score changes (NaN while the element is not listed).
  private val perTopic: Array[Double] = {
    val a = new Array[Double](3 * topics.idx.length)
    var j = 0
    while (j < sigma.length) { a(3 * j) = ActiveElement.rowSum(sigma(j)); a(3 * j + 2) = Double.NaN; j += 1 }
    a
  }

  /** R_i(e) for the topic in slot `j` (static). */
  def rScore(j: Int): Double = perTopic(3 * j)

  private def childPSum(j: Int): Double = perTopic(3 * j + 1)

  private[core] def listedDelta(j: Int): Double = perTopic(3 * j + 2)
  private[core] def setListedDelta(j: Int, s: Double): Unit = perTopic(3 * j + 2) = s

  // In-window children (elements of W_t that refer to this element), one row
  // per child in arrival order: (id, ts) at `idTs(2 * c)` and `idTs(2 * c + 1)`,
  // and p_i(c) per supported topic, child-major at
  // `childPBuf(c * topics.idx.length + j)`. Both arrays share one capacity,
  // counted in children.
  private var nChildren = 0
  private var idTs: Array[Long] = ActiveElement.NoLongs
  private var childPBuf: Array[Double] = ActiveElement.NoDoubles

  /** Number of in-window children, and the id and ts of child `c < childCount`. */
  def childCount: Int = nChildren
  def childId(c: Int): Long = idTs(2 * c)
  def childTs(c: Int): Long = idTs(2 * c + 1)

  /** Child (id, ts) rows: the id of child c at `childIdTs(2 * c)`, valid up to `childCount` rows. */
  private[core] def childIdTs: Array[Long] = idTs

  /** p_i(c) of each child c per supported topic i, child-major:
    * `childP(c * topics.idx.length + j)`, valid up to `childCount` rows.
    */
  private[core] def childP: Array[Double] = childPBuf

  /** I_{i,t}(e) for the singleton set (Equation 4 with S = {e}). */
  def influence(topic: Int): Double = {
    val j = topics.indexOf(topic)
    if (j < 0) 0.0 else topics.v(j) * childPSum(j)
  }

  /** R_i(e), 0 outside the element's topic support. */
  def semantic(topic: Int): Double = {
    val j = topics.indexOf(topic)
    if (j < 0) 0.0 else rScore(j)
  }

  /** δ_i(e) = f_i({e}) = λ·R_i(e) + (1-λ)/η·I_{i,t}(e). */
  def delta(topic: Int): Double = {
    val j = topics.indexOf(topic)
    if (j < 0) 0.0 else deltaAt(j)
  }

  /** δ_i(e) for the topic in slot `j`. */
  def deltaAt(j: Int): Double = ActiveElement.delta(lambda, eta, rScore(j), topics.v(j), childPSum(j))

  private[core] def addChild(child: Element): Unit = {
    val ids = topics.idx
    val stride = ids.length
    if (2 * nChildren == idTs.length) {
      val capacity = math.max(4, 2 * nChildren)
      idTs = java.util.Arrays.copyOf(idTs, 2 * capacity)
      childPBuf = java.util.Arrays.copyOf(childPBuf, capacity * stride)
    }
    idTs(2 * nChildren) = child.id
    idTs(2 * nChildren + 1) = child.ts
    val at = nChildren * stride
    var j = 0
    while (j < stride) {
      val p = child.topics(ids(j))
      childPBuf(at + j) = p
      perTopic(3 * j + 1) += p
      j += 1
    }
    nChildren += 1
  }

  /** Drop children with ts < windowStart; returns true if any were dropped. */
  private[core] def expireChildren(windowStart: Long): Boolean = {
    val before = nChildren
    val stride = topics.idx.length
    var kept = 0
    var c = 0
    while (c < before) {
      if (idTs(2 * c + 1) >= windowStart) {
        if (kept != c) {
          idTs(2 * kept) = idTs(2 * c)
          idTs(2 * kept + 1) = idTs(2 * c + 1)
          System.arraycopy(childPBuf, c * stride, childPBuf, kept * stride, stride)
        }
        kept += 1
      }
      c += 1
    }
    if (kept == before) return false
    nChildren = kept
    // Recompute sums from scratch to avoid float drift accumulating.
    var j = 0
    while (j < stride) {
      var s = 0.0
      c = 0
      while (c < kept) { s += childPBuf(c * stride + j); c += 1 }
      perTopic(3 * j + 1) = s
      j += 1
    }
    true
  }
}

object ActiveElement {
  private val NoLongs = new Array[Long](0)
  private val NoDoubles = new Array[Double](0)

  /** σ_i(w,e) = −γ(w,e)·p·log p with p = p_i(w)·p_i(e), for each word w of
    * the word bag `bag` on topic i with p_i(e) = `pe`; 0 where p = 0.
    */
  def sigmaRow(model: TopicModel, bag: SparseVec, topic: Int, pe: Double): Array[Double] = {
    val row = new Array[Double](bag.idx.length)
    var k = 0
    while (k < row.length) {
      val p = model.pWord(topic, bag.idx(k)) * pe
      row(k) = if (p > 0.0) -bag.v(k) * p * math.log(p) else 0.0
      k += 1
    }
    row
  }

  /** δ_i(e) = λ·R_i(e) + (1−λ)/η·p_i(e)·Σ_c p_i(c), left to right: the one δ
    * expression, shared by the engine's lists and the streaming operator's.
    */
  def delta(lambda: Double, eta: Double, r: Double, p: Double, childPSum: Double): Double =
    lambda * r + (1.0 - lambda) / eta * p * childPSum

  /** R_i(e) = Σ_w σ_i(w,e) over a [[sigmaRow]], summed left to right from the
    * first entry, as `Array[Double].sum` does.
    */
  def rowSum(row: Array[Double]): Double = {
    var s = if (row.length == 0) 0.0 else row(0)
    var k = 1
    while (k < row.length) { s += row(k); k += 1 }
    s
  }
}

/** The k-SIR maintenance engine (Figure 4): the Active Window `A_t`, the
  * per-topic Ranked Lists `RL_1..RL_z` (Algorithm 1), and the scoring
  * parameters. The stream is ingested in buckets of equal time length via
  * [[advance]]; queries run against the current state via MTTS / MTTD / the
  * baselines, all of which take the engine as their input.
  *
  * @param model  the topic model oracle
  * @param window window length T of the sliding window
  * @param lambda semantic-vs-influence trade-off λ (Equation 2)
  * @param eta    scale adjustment η (Equation 2)
  */
final class KSirEngine(
    val model: TopicModel,
    val window: Long,
    val lambda: Double,
    val eta: Double,
) {
  require(window > 0, "window length must be positive")
  require(lambda >= 0 && lambda <= 1, "λ must lie in [0,1]")
  require(eta > 0, "η must be positive")
  require(model.z <= KSirEngine.MaxTopicCount, s"subset keys pack topic ids in 12 bits, so z must be at most ${KSirEngine.MaxTopicCount}")

  /** Every element ever seen, by id: its [[ActiveElement]] while it is in
    * A_t, and its [[Element]] once it has left, so a reference to a
    * discarded element can resurrect it (the paper's A_t = W_t ∪ refs(W_t)
    * readmits any element a window element refers to — e.g. e2 leaves A_6 but
    * is back in A_8 of Table 1 via e7's reference). The one index for
    * references, expiry events and cursor heads. A production system would
    * bound it by the maximum reference lookback; the repro keeps the stream.
    */
  private val index = mutable.LongMap.empty[AnyRef]

  /** n_t: the entries of `index` that hold an [[ActiveElement]]. */
  private var nActive = 0

  /** A_t in admission order for full scans: `scan(0 until scanEnd)`, null
    * where an element left (see DESIGN §6c). An element sits at its `pos`.
    */
  private var scan = new Array[ActiveElement](64)
  private var scanEnd = 0

  /** Ranked list RL_i per topic i. */
  private val lists: Array[RankedList] = Array.fill(model.z)(new RankedList)

  /** One (ts, id) event per ingested element; see the expiry in [[advance]]. */
  private val events = new KSirEngine.EventHeap

  private var nowTs: Long = Long.MinValue

  private var nUnknownRefs = 0L

  /** Active elements per subset of two or more topics: an element counts
    * towards every such subset of its support, by [[KSirEngine.subsetKey]].
    * A count that reaches 0 loses its key, so only subsets that some active
    * element's support contains are held. A single topic needs no count: it
    * is covered exactly when its ranked list is non-empty.
    */
  private val subsetCounts = new LongDoubleMap

  /** Current time t: the end of the last ingested bucket (Long.MinValue before the first). */
  def now: Long = nowTs

  /** Number of active elements n_t. */
  def activeCount: Int = nActive

  /** References, over all buckets so far, to an id that was never ingested;
    * each is otherwise ignored.
    */
  def unknownRefs: Long = nUnknownRefs

  /** Active elements whose support contains the topics `ids(b)` for the set
    * bits b of `mask` (ids ascending, two or more bits set).
    */
  private[core] def subsetCount(ids: Array[Int], mask: Int): Int =
    subsetCounts.getOrElse(KSirEngine.subsetKey(ids, mask), 0.0).toInt

  /** Number of subsets of two or more topics that some active element's support contains. */
  private[core] def subsetsHeld: Int = subsetCounts.size

  /** A_t in admission order, a resurrected element from its latest admission;
    * allocates nothing per element. Not valid across an `advance`.
    */
  def activeElements: Iterator[ActiveElement] = new Iterator[ActiveElement] {
    private var i = skipFrom(0)
    private def skipFrom(from: Int): Int = {
      var j = from
      while (j < scanEnd && scan(j) == null) j += 1
      j
    }
    def hasNext: Boolean = i < scanEnd
    def next(): ActiveElement = {
      if (i >= scanEnd) throw new NoSuchElementException("A_t exhausted")
      val ae = scan(i)
      i = skipFrom(i + 1)
      ae
    }
  }

  def activeElement(id: Long): Option[ActiveElement] = Option(activeOrNull(id))

  /** The active element with this id, or null; allocates nothing. */
  private[core] def activeOrNull(id: Long): ActiveElement = index.getOrNull(id) match {
    case ae: ActiveElement => ae
    case _                 => null
  }

  /** Total references received inside the window by any active element —
    * used by the influence-aware baselines and the Table 6 metric.
    */
  def childCount(id: Long): Int = {
    val ae = activeOrNull(id)
    if (ae == null) 0 else ae.childCount
  }

  /** Ingest one bucket B_t and slide the window to `bucket.endTs`
    * (Algorithm 1, lines 3–13).
    */
  def advance(bucket: Bucket): Unit = {
    require(bucket.endTs > nowTs, s"buckets must advance time: ${bucket.endTs} <= $nowTs")
    // The input contract, checked in replay order before any state changes,
    // so a rejected bucket leaves the engine as it was: ids are unique over
    // the stream, no ts lies after the bucket's end (it would stay active
    // more than T past it), topic masses lie in (0, 1] and sum to 1, topic
    // and word ids index the model, an element has at most
    // `TopicModel.MaxTopics` topics (its support subsets are counted, so
    // they must stay few), a reference into the bucket names an element
    // already replayed (else it would be lost), and no element names a
    // parent twice (Equation 4 covers the set of referrers).
    val order = bucket.replayOrder
    val ids = order.map(_.id)
    java.util.Arrays.sort(ids)
    val replayed = new Array[Boolean](ids.length) // by slot in `ids`; a repeated id finds its slot marked
    val parents = new Array[Long](order.foldLeft(0)(_ max _.refs.length)) // scratch for the repeated-parent check
    order.foreach { e =>
      val slot = java.util.Arrays.binarySearch(ids, e.id)
      require(!replayed(slot) && !index.contains(e.id), s"duplicate element id ${e.id}")
      require(e.ts <= bucket.endTs, s"element ${e.id}: ts ${e.ts} lies after its bucket's end ${bucket.endTs}")
      val t = e.topics.idx
      val p = e.topics.v
      var sum = 0.0
      var m = 0
      while (m < p.length && p(m) > 0.0 && p(m) <= 1.0) { sum += p(m); m += 1 }
      require(m == p.length && math.abs(sum - 1.0) <= 1e-9, s"element ${e.id}: topic masses must lie in (0, 1] and sum to 1")
      require(t(0) >= 0 && t(t.length - 1) < model.z, s"element ${e.id}: topic id outside [0, ${model.z})")
      require(t.length <= TopicModel.MaxTopics, s"element ${e.id}: ${t.length} topics, more than ${TopicModel.MaxTopics}")
      var w = 0
      while (w < e.words.length && e.words(w) >= 0 && e.words(w) < model.vocabSize) w += 1
      require(w == e.words.length, s"element ${e.id}: word id outside [0, ${model.vocabSize})")
      e.refs.foreach { pid =>
        val k = java.util.Arrays.binarySearch(ids, pid)
        require(k < 0 || replayed(k), if (pid == e.id) s"element ${e.id} refers to itself"
          else s"element ${e.id} refers to $pid, which its bucket replays after it")
      }
      replayed(slot) = true
      val n = e.refs.length
      System.arraycopy(e.refs, 0, parents, 0, n)
      java.util.Arrays.sort(parents, 0, n)
      var r = 1
      while (r < n && parents(r) != parents(r - 1)) r += 1
      require(r >= n, s"element ${e.id} refers to ${parents(r - 1)} twice")
    }
    nowTs = bucket.endTs
    val windowStart = nowTs - window + 1

    // Insert each element and propagate its references to parents in replay
    // order, so a parent from the same bucket is in A_t before its children.
    order.foreach { e =>
      admit(e)
      events.push(e.ts, e.id)
      e.refs.foreach { pid =>
        // Resurrect a discarded element the moment it is referred again: it
        // re-enters A_t with no in-window children (any earlier child would
        // have kept it active in the first place).
        val parent = index.getOrNull(pid) match {
          case ae: ActiveElement => ae
          case old: Element      => admit(old)
          case _                 => nUnknownRefs += 1; null
        }
        if (parent != null) {
          parent.addChild(e)
          relist(parent, keep = true)
        }
      }
    }

    // Expire, in O(expired events) rather than O(n_t): t_e is the latest of an element's ts and
    // its in-window children's, so checking the element of each popped event and the active
    // parents it refers to checks each element in the advance where its t_e leaves (DESIGN §6b).
    // Parents that stay are refreshed: Algorithm 1 only deletes expired tuples, but δ_i must
    // match Equation 4 exactly.
    while (events.nonEmpty && events.minTs < windowStart) {
      val elem = index(events.popId()) match {
        case ae: ActiveElement => expire(ae, windowStart); ae.elem
        case old: Element      => old
      }
      var r = 0
      while (r < elem.refs.length) {
        val parent = activeOrNull(elem.refs(r))
        if (parent != null) expire(parent, windowStart)
        r += 1
      }
    }
  }

  /** Drops ae's children older than `windowStart`; then ae leaves A_t if it is older too and
    * has none left, its index entry going back to its `Element`, or else is relisted if one was dropped.
    */
  private def expire(ae: ActiveElement, windowStart: Long): Unit = {
    val dropped = ae.expireChildren(windowStart)
    if (ae.elem.ts < windowStart && ae.childCount == 0) {
      relist(ae, keep = false)
      index(ae.elem.id) = ae.elem
      nActive -= 1
      scan(ae.pos) = null
      countSubsets(ae, -1)
    } else if (dropped) relist(ae, keep = true)
  }

  /** Puts e into A_t, with no children, at the end of the scan order, and
    * into the ranked lists of its topics.
    */
  private def admit(e: Element): ActiveElement = {
    val ae = new ActiveElement(e, model, lambda, eta)
    if (scanEnd == scan.length) {
      if (2 * nActive <= scan.length) compactScan()
      else scan = java.util.Arrays.copyOf(scan, 2 * scan.length)
    }
    ae.pos = scanEnd
    scan(scanEnd) = ae
    scanEnd += 1
    index(e.id) = ae
    nActive += 1
    countSubsets(ae, 1)
    relist(ae, keep = true)
    ae
  }

  /** Adds `by` to the count of every subset of two or more of ae's topics:
    * 2^s − 1 − s updates for s topics.
    */
  private def countSubsets(ae: ActiveElement, by: Int): Unit = {
    val ids = ae.topics.idx
    var mask = 3
    while (mask < (1 << ids.length)) {
      if ((mask & (mask - 1)) != 0) {
        val key = KSirEngine.subsetKey(ids, mask)
        val c = subsetCounts.getOrElse(key, 0.0) + by
        require(c >= 0, s"count of subset $key would fall to $c")
        if (c == 0) subsetCounts.remove(key) else subsetCounts(key) = c
      }
      mask += 1
    }
  }

  /** Slides the live entries of `scan` to its front, keeping their order. */
  private def compactScan(): Unit = {
    var n = 0
    var i = 0
    while (i < scanEnd) {
      val ae = scan(i)
      if (ae != null) { ae.pos = n; scan(n) = ae; n += 1 }
      i += 1
    }
    java.util.Arrays.fill(scan.asInstanceOf[Array[AnyRef]], n, scanEnd, null)
    scanEnd = n
  }

  /** Brings ae's entries in RL_i to its current δ_i(e) when `keep`, or removes
    * them. An entry moves only when its score changed; NaN in `listedDelta`
    * means "not listed", and a NaN never equals the stored score.
    */
  private def relist(ae: ActiveElement, keep: Boolean): Unit = {
    var j = 0
    while (j < ae.topics.idx.length) {
      val s = if (keep) ae.deltaAt(j) else Double.NaN
      val listed = ae.listedDelta(j)
      if (s != listed) {
        val list = lists(ae.topics.idx(j))
        if (!java.lang.Double.isNaN(listed)) list.remove(listed, ae.elem.id)
        if (keep) list.add(s, ae.elem.id)
        ae.setListedDelta(j, s)
      }
      j += 1
    }
  }

  private[core] def list(topic: Int): RankedList = lists(topic)

  /** Rejects a query naming a topic outside [0, z); the list lookups would
    * fail on it and the full scans would score it as 0.
    */
  private[core] def requireQueryTopics(q: QueryVector): Unit = {
    val t = q.entries.idx
    var j = 0
    while (j < t.length) {
      require(t(j) >= 0 && t(j) < model.z, s"query topic ${t(j)} outside [0, ${model.z})")
      j += 1
    }
  }

  /** Sorted (score desc) iterator over RL_i; not valid across an `advance`. */
  def rankedList(topic: Int): Iterator[(Double, Long)] = lists(topic).iterator

  /** Size of RL_i. */
  def rankedListSize(topic: Int): Int = lists(topic).size

  /** δ(e, x) = Σ_i x_i δ_i(e) for an active element. */
  def deltaScore(ae: ActiveElement, q: QueryVector): Double = {
    var s = 0.0
    var j = 0
    while (j < q.d) { s += q.entries.v(j) * ae.delta(q.entries.idx(j)); j += 1 }
    s
  }

  /** Evaluate f(S, x) from scratch (used by tests and set-valued baselines). */
  def evaluate(ids: Iterable[Long], q: QueryVector): Double = {
    val cs = new CandidateState(this, q)
    ids.foreach(id => activeElement(id).foreach(cs.add))
    cs.score
  }
}

object KSirEngine {

  /** Most topics an engine's model may have: [[subsetKey]] packs a topic id in 12 bits. */
  val MaxTopicCount = 1 << 12

  /** The key of the topic subset {ids(b) : bit b of `mask` set}, `ids`
    * ascending and below [[MaxTopicCount]]: the ids in 12 bits each, from
    * the lowest bit's id in the highest place, and the subset's size above
    * them, so {1, 2} and {0, 1, 2} differ. Up to `TopicModel.MaxTopics` = 5
    * ids fill 60 bits.
    */
  private def subsetKey(ids: Array[Int], mask: Int): Long = {
    var key = 0L
    var m = mask
    while (m != 0) {
      key = (key << 12) | ids(Integer.numberOfTrailingZeros(m))
      m &= m - 1
    }
    (Integer.bitCount(mask).toLong << 60) | key
  }

  /** Binary min-heap of (ts, id) events on ts, kept in two primitive arrays.
    * A heap rather than a FIFO, so expiry stays exact when a bucket carries
    * timestamps older than an earlier bucket's.
    */
  private final class EventHeap {
    private var ts = new Array[Long](64)
    private var ids = new Array[Long](64)
    private var n = 0

    def nonEmpty: Boolean = n > 0

    def minTs: Long = ts(0)

    def push(t: Long, id: Long): Unit = {
      if (n == ts.length) {
        ts = java.util.Arrays.copyOf(ts, 2 * n)
        ids = java.util.Arrays.copyOf(ids, 2 * n)
      }
      var i = n
      n += 1
      while (i > 0 && ts((i - 1) / 2) > t) {
        val p = (i - 1) / 2
        ts(i) = ts(p); ids(i) = ids(p)
        i = p
      }
      ts(i) = t; ids(i) = id
    }

    /** Removes the event with the least ts and returns its id. */
    def popId(): Long = {
      val top = ids(0)
      n -= 1
      val t = ts(n)
      val id = ids(n)
      var i = 0
      var c = 1
      while (c < n) {
        if (c + 1 < n && ts(c + 1) < ts(c)) c += 1
        if (ts(c) < t) {
          ts(i) = ts(c); ids(i) = ids(c)
          i = c
          c = 2 * c + 1
        } else c = n
      }
      ts(i) = t; ids(i) = id
      top
    }
  }
}
