package perfbench

import repro.baselines.{Celf, SieveStreaming, TopKRepresentative}
import repro.core._
import scala.collection.mutable

object Calls {
  import Workloads._

  /** One query call into the program. */
  def query(engine: KSirEngine, m: Method, q: QueryVector): KSirResult = m match {
    case Method.Mttd  => MTTD.query(engine, q, K, Epsilon)
    case Method.Mtts  => MTTS.query(engine, q, K, Epsilon)
    case Method.TopK  => TopKRepresentative.query(engine, q, K)
    case Method.Celf  => Celf.query(engine, q, K)
    case Method.Sieve => SieveStreaming.query(engine, q, K, Epsilon)
  }
}

/** One timing per item per pass. `best` holds each item's least time over
  * the passes, which the medians use; `pooled` holds every timing of every
  * pass, which the tails use, so a pause that hits an item in any pass (a GC,
  * a JIT compilation) stays in them.
  */
final class ItemTimes(n: Int) {
  private val least = Array.fill(n)(Double.PositiveInfinity)
  val pooled = new Samples
  def add(i: Int, x: Double): Unit = {
    if (x < least(i)) least(i) = x
    pooled.add(x)
  }
  def apply(i: Int): Double = least(i)
  def best: Samples = {
    val s = new Samples
    least.foreach(x => if (!x.isInfinite) s.add(x))
    s
  }
}

/** What the traced run measures per layer, pooled over passes. */
final class LayerStats {
  val advanceMs = new Samples
  val nT = new Samples
  val listEntries = new Samples
  val aeNewUs = new Samples
  var aeBuilt = 0L
  var sigmaEntries = 0L
  var advanceAlloc = 0L
  var advanceElems = 0L
  val retrieved = mutable.Map.empty[Method, Samples]
  val evaluatedFrac = mutable.Map.empty[Method, Samples]
  val allocKb = mutable.Map.empty[Method, Samples]
  val selfMs = mutable.Map.empty[Method, Samples]
  val answerSize = mutable.Map.empty[Method, Long].withDefaultValue(0L)
  val evaluated = mutable.Map.empty[Method, Long].withDefaultValue(0L)
  val popNs = new Samples
  val deltaNs = new Samples
  val gainNs = new Samples
  val addNs = new Samples
  val queryOverheadUs = new Samples
  var tracedNs = 0L
  var untracedNs = 0L

  def of(map: mutable.Map[Method, Samples], m: Method): Samples = map.getOrElseUpdate(m, new Samples)

  /** One traced call: its wall time with everything tracing does around it,
    * and the time of the same call untraced.
    */
  def traced(wallNs: Long, untracedNs: Long, query: Boolean): Unit = {
    if (query) queryOverheadUs.add((wallNs - untracedNs) / 1e3)
    tracedNs += wallNs
    this.untracedNs += untracedNs
  }
}

/** The closed-loop replay: one caller advances the engine bucket by bucket
  * through the timed segment and, between buckets, issues the queries that
  * fell due, each call waiting for the previous one. Only calls into the
  * program are timed.
  *
  * The segment is replayed in passes, each on a freshly loaded engine
  * (loading untimed), until at least [[Replay.MinPasses]] passes have run and
  * `seconds` of timed calls have accumulated. Every bucket and every query
  * call is an item timed once per pass. The calibration task runs at the
  * start and end of each pass and whenever [[Replay.CalibrateEveryNs]] of
  * timed calls have gone by since it last ran, which splits a pass into
  * epochs. An item's calibrated time is its raw time scaled by
  * [[Calibration.ReferenceMs]] over the mean calibration at its epoch's two
  * ends. Medians are taken over items, each at its least calibrated time
  * over the passes; tails are taken over every calibrated timing of every
  * pass.
  */
final class Replay(inputs: Inputs, seconds: Double, checker: AnswerChecker, tracer: Option[Tracer], cal: Calibration) {
  import Replay._

  private val nBuckets = inputs.timedBuckets.length
  private val nQueries = inputs.queries.length
  private val advanceTimes = new ItemTimes(nBuckets)
  private val advanceRawTimes = new ItemTimes(nBuckets)
  private val queryTimes: Map[Method, ItemTimes] = Method.all.map(_ -> new ItemTimes(nQueries)).toMap
  private val queryRawTimes: Map[Method, ItemTimes] = Method.all.map(_ -> new ItemTimes(nQueries)).toMap
  // This pass's raw times and epochs, folded into the item times when it ends.
  private val advanceNow = new Array[Double](nBuckets)
  private val advanceEpoch = new Array[Int](nBuckets)
  private val queryNow: Map[Method, Array[Double]] = Method.all.map(_ -> Array.fill(nQueries)(Double.NaN)).toMap
  private val queryEpoch = new Array[Int](nQueries)
  private val epochCal = mutable.ArrayBuffer.empty[Double]
  private var lastCalBusy = 0L
  val layers = new LayerStats
  val calibrations = new Samples
  private val qualitySum = mutable.Map.empty[Method, Double].withDefaultValue(0.0)
  private var firstDigests: Map[Method, String] = Map.empty
  var passes = 0
  var busyNs = 0L
  var gcCount = 0L
  var gcMs = 0L

  /** Per-bucket advance times, ms. */
  def advanceMs(raw: Boolean = false): ItemTimes = if (raw) advanceRawTimes else advanceTimes

  /** Per-bucket advance time over bucket size, µs per element. */
  def usPerElem(raw: Boolean = false): Samples = {
    val t = advanceMs(raw)
    val s = new Samples
    inputs.timedBuckets.zipWithIndex.foreach { case (b, i) =>
      if (b.elements.nonEmpty && !t(i).isInfinite) s.add(t(i) * 1e3 / b.elements.length)
    }
    s
  }

  def latencyMs(m: Method, raw: Boolean = false): ItemTimes = (if (raw) queryRawTimes else queryTimes)(m)

  /** Σ score of MTTD or MTTS over Σ CELF score on the CELF subsample. */
  def quality(m: Method): Double = qualitySum(m) / qualitySum(Method.Celf)

  def digests: Map[Method, String] = firstDigests

  /** Replays passes until the stop rule holds or `wallCapNs` of wall time
    * has gone by; returns the engine of the last pass.
    */
  def run(first: KSirEngine, wallCapNs: Long): KSirEngine = {
    val wall0 = System.nanoTime()
    var engine = first
    while (passes < MinPasses || (busyNs < seconds * 1e9 && System.nanoTime() - wall0 < wallCapNs)) {
      if (passes > 0) engine = inputs.loadedEngine()
      epochCal.clear()
      calibrate()
      val gc0 = (Jvm.gcCount, Jvm.gcMillis)
      pass(engine)
      gcCount += Jvm.gcCount - gc0._1
      gcMs += Jvm.gcMillis - gc0._2
      calibrate()
      fold()
      passes += 1
    }
    engine
  }

  /** Ends the current epoch with a calibration. */
  private def calibrate(): Unit = {
    val c = cal.measure()
    calibrations.add(c)
    epochCal += c
    lastCalBusy = busyNs
  }

  private def epoch: Int = {
    if (busyNs - lastCalBusy >= CalibrateEveryNs) calibrate()
    epochCal.length - 1
  }

  private def fold(): Unit = {
    val scale = Array.tabulate(epochCal.length - 1)(e => Calibration.ReferenceMs / ((epochCal(e) + epochCal(e + 1)) / 2))
    var i = 0
    while (i < nBuckets) {
      advanceTimes.add(i, advanceNow(i) * scale(advanceEpoch(i)))
      advanceRawTimes.add(i, advanceNow(i))
      i += 1
    }
    Method.all.foreach { m =>
      val now = queryNow(m)
      var q = 0
      while (q < nQueries) {
        if (!now(q).isNaN) { queryTimes(m).add(q, now(q) * scale(queryEpoch(q))); queryRawTimes(m).add(q, now(q)) }
        q += 1
      }
    }
  }

  /** One pass over the timed segment. */
  private def pass(engine: KSirEngine): Unit = {
    val buckets = inputs.timedBuckets
    val queries = inputs.queries
    val digests = Method.all.map(_ -> new Digest).toMap
    var qi = 0
    var bi = 0
    while (bi < buckets.length) {
      while (qi < queries.length && queries(qi).ts < buckets(bi).endTs) {
        queryEpoch(qi) = epoch
        runQuery(engine, queries(qi), digests)
        qi += 1
      }
      advanceEpoch(bi) = epoch
      advance(engine, bi)
      bi += 1
    }
    val got = digests.map { case (m, d) => m -> d.hex }
    if (passes == 0) firstDigests = got
    else Method.all.foreach(m => checker.compareDigest(s"pass ${passes + 1} ${m.name}", firstDigests.get(m), got(m)))
  }

  private def advance(engine: KSirEngine, bi: Int): Unit = {
    val b = inputs.timedBuckets(bi)
    val w0 = System.nanoTime()
    val a0 = if (tracer.isDefined) Jvm.allocated else 0L
    val t0 = System.nanoTime()
    engine.advance(b)
    val t1 = System.nanoTime()
    busyNs += t1 - t0
    advanceNow(bi) = (t1 - t0) / 1e6
    tracer.foreach { tr =>
      val a1 = Jvm.allocated
      layers.advanceMs.add((t1 - t0) / 1e6)
      layers.advanceAlloc += a1 - a0
      layers.advanceElems += b.elements.length
      var entries = 0L
      var i = 0
      while (i < engine.model.z) { entries += engine.rankedListSize(i); i += 1 }
      layers.nT.add(engine.activeCount)
      layers.listEntries.add(entries.toDouble)
      val span = tr.record(-1, "engine.advance", t0, t1, "pass" -> passes, "elements" -> b.elements.length,
        "n_t" -> engine.activeCount)
      // Re-time the ActiveElement constructions of the bucket's elements.
      var sigma = 0L
      val t2 = System.nanoTime()
      b.elements.foreach { e =>
        val ae = new ActiveElement(e, engine.model, engine.lambda, engine.eta)
        var j = 0
        while (j < ae.sigma.length) { sigma += ae.sigma(j).length; j += 1 }
      }
      val t3 = System.nanoTime()
      tr.record(span, "active_element.new", t2, t3, "elements" -> b.elements.length, "sigma_entries" -> sigma)
      if (b.elements.nonEmpty) layers.aeNewUs.add((t3 - t2) / 1e3 / b.elements.length)
      layers.aeBuilt += b.elements.length
      layers.sigmaEntries += sigma
      // An advance cannot be repeated on the same state, so its untraced
      // time is the call itself.
      layers.traced(System.nanoTime() - w0, t1 - t0, query = false)
    }
  }

  private def runQuery(engine: KSirEngine, pq: PlannedQuery, digests: Map[Method, Digest]): Unit = {
    val results = pq.methods.map { m =>
      val r = tracer match {
        case None =>
          val t0 = System.nanoTime()
          val r = Calls.query(engine, m, pq.vector)
          val t1 = System.nanoTime()
          busyNs += t1 - t0
          queryNow(m)(pq.index) = (t1 - t0) / 1e6
          r
        case Some(tr) => tracedQuery(tr, engine, m, pq)
      }
      m -> r
    }
    val celf = results.collectFirst { case (Method.Celf, r) => r.score }
    results.foreach { case (m, r) =>
      checker.check(engine, pq.vector, m, r, celf, s"pass ${passes + 1} query ${pq.index} at t=${pq.ts}")
      digests(m).add(r)
      if (passes == 0 && celf.isDefined) qualitySum(m) += r.score
    }
  }

  /** A traced query: the call inside a span with allocation counts, and
    * attribution child spans that re-execute the layer calls it made. The
    * same call is also made once untraced (before or after, alternating), and
    * the traced item's whole wall time — allocation reads, span recording,
    * attribution — minus the untraced call is what tracing added.
    */
  private def tracedQuery(tr: Tracer, engine: KSirEngine, m: Method, pq: PlannedQuery): KSirResult = {
    def bare(): Long = {
      val t0 = System.nanoTime()
      Calls.query(engine, m, pq.vector)
      System.nanoTime() - t0
    }
    val untracedFirst = (pq.index + passes) % 2 == 0
    val untraced0 = if (untracedFirst) bare() else 0L
    val w0 = System.nanoTime()
    val a0 = Jvm.allocated
    val t0 = System.nanoTime()
    val r = Calls.query(engine, m, pq.vector)
    val t1 = System.nanoTime()
    val a1 = Jvm.allocated
    busyNs += t1 - t0
    queryNow(m)(pq.index) = (t1 - t0) / 1e6
    layers.of(layers.allocKb, m).add((a1 - a0) / 1024.0)
    val span = tr.record(-1, s"query.${m.name}", t0, t1, "pass" -> passes, "query" -> pq.index,
      "n_t" -> engine.activeCount, "retrieved" -> r.retrieved, "evaluated" -> r.evaluated, "size" -> r.elements.length)
    layers.of(layers.retrieved, m).add(r.retrieved)
    layers.of(layers.evaluatedFrac, m).add(r.evaluated.toDouble / math.max(1, engine.activeCount))
    layers.answerSize(m) += r.elements.length
    layers.evaluated(m) += r.evaluated
    if (Method.indexed.contains(m)) attribute(tr, span, engine, m, pq.vector, r, t1 - t0)
    val w1 = System.nanoTime()
    val untraced = if (untracedFirst) untraced0 else bare()
    layers.traced(w1 - w0, untraced, query = true)
    r
  }

  /** Re-executes, through public APIs, the layer calls a ranked-list query
    * made: a fresh cursor popped `retrieved` times with the UB bound read at
    * each step, δ over the popped elements, `add` of the answer into a fresh
    * candidate state, and (for MTTS and MTTD) `gain` of each popped element
    * against that state. The query's self time is estimated as its duration
    * minus the cursor and δ re-executions, the work every retrieved element
    * costs once; it holds the gain and add calls, whose number is not
    * observable from outside, and the algorithm's own bookkeeping.
    */
  private def attribute(tr: Tracer, parent: Int, engine: KSirEngine, m: Method, q: QueryVector, r: KSirResult, durNs: Long): Unit = {
    val t0 = System.nanoTime()
    val cursor = new RankedListCursor(engine, q)
    val popped = mutable.ArrayBuffer.empty[ActiveElement]
    var ub = 0.0
    var i = 0
    while (i < r.retrieved) {
      ub += cursor.upperBound
      val ae = cursor.popMax()
      if (ae != null) popped += ae
      i += 1
    }
    val t1 = System.nanoTime()
    var d = 0.0
    popped.foreach(ae => d += engine.deltaScore(ae, q))
    val t2 = System.nanoTime()
    val cs = new CandidateState(engine, q)
    r.elements.foreach(id => engine.activeElement(id).foreach(cs.add))
    val t3 = System.nanoTime()
    var g = 0.0
    if (m != Method.TopK) popped.foreach(ae => g += cs.gain(ae))
    val t4 = System.nanoTime()
    sink += ub + d + g
    tr.record(parent, "cursor.pop", t0, t1, "pops" -> r.retrieved)
    tr.record(parent, "scoring.delta", t1, t2, "calls" -> popped.length)
    tr.record(parent, "scoring.add", t2, t3, "calls" -> r.elements.length)
    if (m != Method.TopK) tr.record(parent, "scoring.gain", t3, t4, "calls" -> popped.length)
    if (r.retrieved > 0) layers.popNs.add((t1 - t0).toDouble / r.retrieved)
    if (popped.nonEmpty) layers.deltaNs.add((t2 - t1).toDouble / popped.length)
    if (r.elements.nonEmpty) layers.addNs.add((t3 - t2).toDouble / r.elements.length)
    if (popped.nonEmpty && m != Method.TopK) layers.gainNs.add((t4 - t3).toDouble / popped.length)
    layers.of(layers.selfMs, m).add((durNs - (t2 - t0)) / 1e6)
  }
}

object Replay {
  /** Passes every item gets at least. */
  val MinPasses = 4

  /** Timed work between two calibrations inside a pass. */
  val CalibrateEveryNs = 300000000L

  /** Consumes re-executed results so the JIT cannot drop the work. */
  @volatile var sink = 0.0
}
