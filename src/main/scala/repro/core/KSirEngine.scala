package repro.core

import scala.collection.mutable

/** A reference from a child element within the current window to a parent.
  * The child's topic distribution is snapshotted so influence scores can be
  * recomputed without a lookup race during expiry.
  */
final case class ChildRef(childId: Long, childTs: Long, childTopics: Array[(Int, Double)])

/** An element held in the active window together with all per-topic state the
  * ranked lists need: the static semantic score `R_i(e)`, the word weights
  * `σ_i(w,e)`, the time-varying singleton influence `I_{i,t}(e)`, and the
  * timestamp `t_e` when the element was last referred to (its own arrival
  * counts, per Algorithm 1).
  *
  * All per-topic arrays are aligned with `elem.topics` (the element's sparse
  * topic support).
  */
final class ActiveElement(val elem: Element, model: TopicModel, lambda: Double, eta: Double) {

  /** Last time this element was posted or referred to (t_e in Algorithm 1). */
  var lastReferred: Long = elem.ts

  /** In-window children: elements of W_t that refer to this element. */
  val children = mutable.ArrayBuffer.empty[ChildRef]

  /** σ_i(w,e) for each distinct word, one array per supported topic. */
  val sigma: Array[Array[(Int, Double)]] = elem.topics.map { case (i, pe) =>
    elem.wordFreqs.map { case (w, freq) =>
      val p = model.pWord(i, w) * pe
      val s = if (p > 0.0) -freq * p * math.log(p) else 0.0
      (w, s)
    }
  }

  /** R_i(e): semantic score per supported topic (static). */
  val rScore: Array[Double] = sigma.map(_.map(_._2).sum)

  /** Σ_{c ∈ children} p_i(c) per supported topic; I_{i,t}(e) = p_i(e)·sum. */
  private val childPSum: Array[Double] = new Array[Double](elem.topics.length)

  private def entryIdx(topic: Int): Int = {
    var j = 0
    while (j < elem.topics.length) { if (elem.topics(j)._1 == topic) return j; j += 1 }
    -1
  }

  /** I_{i,t}(e) for the singleton set (Equation 4 with S = {e}). */
  def influence(topic: Int): Double = {
    val j = entryIdx(topic)
    if (j < 0) 0.0 else elem.topics(j)._2 * childPSum(j)
  }

  /** R_i(e), 0 outside the element's topic support. */
  def semantic(topic: Int): Double = {
    val j = entryIdx(topic)
    if (j < 0) 0.0 else rScore(j)
  }

  /** δ_i(e) = f_i({e}) = λ·R_i(e) + (1-λ)/η·I_{i,t}(e). */
  def delta(topic: Int): Double = {
    val j = entryIdx(topic)
    if (j < 0) 0.0
    else lambda * rScore(j) + (1.0 - lambda) / eta * elem.topics(j)._2 * childPSum(j)
  }

  /** σ_i(w,e) pairs for a topic, empty outside the support. */
  def sigmaFor(topic: Int): Array[(Int, Double)] = {
    val j = entryIdx(topic)
    if (j < 0) Array.empty else sigma(j)
  }

  private[core] def addChild(c: ChildRef): Unit = {
    children += c
    var j = 0
    while (j < elem.topics.length) {
      childPSum(j) += pOf(c.childTopics, elem.topics(j)._1)
      j += 1
    }
  }

  /** Drop children with ts < windowStart; returns true if any were dropped. */
  private[core] def expireChildren(windowStart: Long): Boolean = {
    val before = children.length
    if (before == 0) return false
    val kept = children.filter(_.childTs >= windowStart)
    if (kept.length == before) return false
    children.clear(); children ++= kept
    // Recompute sums from scratch to avoid float drift accumulating.
    var j = 0
    while (j < elem.topics.length) {
      var s = 0.0
      kept.foreach(c => s += pOf(c.childTopics, elem.topics(j)._1))
      childPSum(j) = s
      j += 1
    }
    true
  }

  private def pOf(topics: Array[(Int, Double)], topic: Int): Double = {
    var j = 0
    while (j < topics.length) { if (topics(j)._1 == topic) return topics(j)._2; j += 1 }
    0.0
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

  private val active = mutable.LongMap.empty[ActiveElement]

  /** All elements ever seen, so a reference to a previously-discarded
    * element can resurrect it (the paper's A_t = W_t ∪ refs(W_t) readmits
    * any element a window element refers to — e.g. e2 leaves A_6 but is back
    * in A_8 of Table 1 via e7's reference). A production system would bound
    * this by the maximum reference lookback; the repro keeps the stream.
    */
  private val archive = mutable.LongMap.empty[Element]

  /** Ranked list per topic: (score, id) ordered descending by score (ties by
    * id, descending, so ordering is total and deterministic).
    */
  private val lists: Array[mutable.TreeSet[(Double, Long)]] =
    Array.fill(model.z)(mutable.TreeSet.empty[(Double, Long)](KSirEngine.ListOrder))

  /** Current scores of each element in each list it appears in, so stale
    * tuples can be located and removed on adjustment.
    */
  private val listed = mutable.LongMap.empty[Array[Double]]

  /** One (ts, id) event per inserted element and per resolved reference to a
    * parent; an id is checked for expiry when one of its events leaves the
    * window.
    */
  private val events = new KSirEngine.EventHeap

  private var nowTs: Long = 0L

  /** Current time t (end of the last ingested bucket). */
  def now: Long = nowTs

  /** Number of active elements n_t. */
  def activeCount: Int = active.size

  def activeElements: Iterator[ActiveElement] = active.valuesIterator

  def activeElement(id: Long): Option[ActiveElement] = active.get(id)

  /** Total references received inside the window by any active element —
    * used by the influence-aware baselines and the Table 6 metric.
    */
  def childCount(id: Long): Int = active.get(id).map(_.children.length).getOrElse(0)

  /** Ingest one bucket B_t and slide the window to `bucket.endTs`
    * (Algorithm 1, lines 3–13).
    */
  def advance(bucket: Bucket): Unit = {
    require(bucket.endTs > nowTs, s"buckets must advance time: ${bucket.endTs} <= $nowTs")
    nowTs = bucket.endTs
    val windowStart = nowTs - window + 1

    // Insert each element and propagate its references to parents, in
    // timestamp order (references always point strictly backwards in time,
    // so parents are inserted before their children's refs are applied).
    bucket.elements.sortBy(e => (e.ts, e.id)).foreach { e =>
      val ae = new ActiveElement(e, model, lambda, eta)
      archive(e.id) = e
      active(e.id) = ae
      insertIntoLists(ae)
      events.push(e.ts, e.id)
      e.refs.foreach { pid =>
        val parentOpt = active.get(pid).orElse {
          // Resurrect a discarded element the moment it is referred again:
          // it re-enters A_t with no in-window children (any earlier child
          // would have kept it active in the first place).
          archive.get(pid).map { pe =>
            val revived = new ActiveElement(pe, model, lambda, eta)
            active(pid) = revived
            insertIntoLists(revived)
            revived
          }
        }
        parentOpt.foreach { parent =>
          parent.addChild(ChildRef(e.id, e.ts, e.topics))
          parent.lastReferred = math.max(parent.lastReferred, e.ts)
          refreshLists(parent)
          events.push(e.ts, pid)
        }
      }
    }

    // Expire, in O(expired events) rather than O(n_t): every active element
    // keeps an unpopped event at or before its lastReferred, and every
    // in-window child one on its parent, so each element that leaves A_t and
    // each parent with an expiring child is popped here. Drop elements never
    // referred to at or after t-T+1; for survivors, drop expired children and
    // refresh their influence scores. (The paper's Algorithm 1 only deletes
    // expired tuples; refreshing parents of expired children is required for
    // δ_i to match Equation 4 exactly — see DESIGN §6b.) Stale events find
    // their id absent, or still referred.
    while (events.nonEmpty && events.minTs < windowStart) {
      active.get(events.popId()).foreach { ae =>
        if (ae.lastReferred < windowStart) {
          removeFromLists(ae)
          active.remove(ae.elem.id)
        } else if (ae.expireChildren(windowStart)) refreshLists(ae)
      }
    }
  }

  private def insertIntoLists(ae: ActiveElement): Unit = {
    val scores = new Array[Double](ae.elem.topics.length)
    var j = 0
    while (j < ae.elem.topics.length) {
      val topic = ae.elem.topics(j)._1
      val s = ae.delta(topic)
      scores(j) = s
      lists(topic).add((s, ae.elem.id))
      j += 1
    }
    listed(ae.elem.id) = scores
  }

  private def refreshLists(ae: ActiveElement): Unit = {
    val scores = listed(ae.elem.id)
    var j = 0
    while (j < ae.elem.topics.length) {
      val topic = ae.elem.topics(j)._1
      val s = ae.delta(topic)
      if (s != scores(j)) {
        lists(topic).remove((scores(j), ae.elem.id))
        lists(topic).add((s, ae.elem.id))
        scores(j) = s
      }
      j += 1
    }
  }

  private def removeFromLists(ae: ActiveElement): Unit = {
    val scores = listed(ae.elem.id)
    var j = 0
    while (j < ae.elem.topics.length) {
      lists(ae.elem.topics(j)._1).remove((scores(j), ae.elem.id))
      j += 1
    }
    listed.remove(ae.elem.id)
  }

  /** Sorted (score desc) snapshot iterator over RL_i. */
  def rankedList(topic: Int): Iterator[(Double, Long)] = lists(topic).iterator

  /** Size of RL_i. */
  def rankedListSize(topic: Int): Int = lists(topic).size

  /** δ(e, x) = Σ_i x_i δ_i(e) for an active element. */
  def deltaScore(ae: ActiveElement, q: QueryVector): Double = {
    var s = 0.0
    q.entries.foreach { case (i, xi) => s += xi * ae.delta(i) }
    s
  }

  /** Evaluate f(S, x) from scratch (used by tests and set-valued baselines). */
  def evaluate(ids: Iterable[Long], q: QueryVector): Double = {
    val cs = new CandidateState(this, q)
    ids.foreach(id => active.get(id).foreach(cs.add))
    cs.score
  }
}

object KSirEngine {

  /** Ranked-list order: score descending, then id descending. The same total
    * order as `Ordering.Tuple2(Ordering[Double].reverse, Ordering[Long].reverse)`
    * (including −0.0 and NaN) without boxing either field on each compare.
    */
  private object ListOrder extends Ordering[(Double, Long)] {
    def compare(a: (Double, Long), b: (Double, Long)): Int = {
      val c = java.lang.Double.compare(b._1, a._1)
      if (c != 0) c else java.lang.Long.compare(b._2, a._2)
    }
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
