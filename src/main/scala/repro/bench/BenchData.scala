package repro.bench

import repro.core._
import repro.data._

/** Shared bench-scale datasets and replay harness. Table 4 defaults:
  * ε = 0.1, k = 10, z = 50, T = 24 h, L = 15 min, λ = 0.5. The paper's η
  * (20 / 20 / 200) equalizes the ranges of its corpora's raw influence and
  * semantic scores; our synthetic corpora have different raw ranges, so η is
  * derived from the data the same way (mean influence / mean semantic over
  * a warmed window) and reported next to the results.
  */
object BenchData {

  val Epsilon = 0.1
  val DefaultK = 10
  val WindowT: Long = 24 * 3600 // 24 hours, in seconds
  val BucketL: Long = 15 * 60 // 15 minutes
  val SpanSeconds: Long = 3 * 24 * 3600 // 3-day streams
  val Lambda = 0.5
  val NElements = 12000

  final case class Dataset(
      name: String,
      gen: SocialStreamGen.Generated,
      eta: Double,
      buckets: Seq[Bucket],
  ) {
    /** Fresh engine replayed up to time ts. */
    def engineAt(ts: Long): KSirEngine = {
      val e = new KSirEngine(gen.model, WindowT, Lambda, eta)
      buckets.takeWhile(_.endTs <= ts).foreach(e.advance)
      e
    }
  }

  private def build(cfg: StreamConfig): Dataset = {
    val g = SocialStreamGen.generate(cfg)
    val buckets = Bucket.bucketize(g.elements, BucketL, SpanSeconds)
    // Derive η from a warmed window: mean per-topic influence over mean
    // per-topic semantic score, so both terms of Equation 2 matter. Summed in
    // id order, so η depends on the stream and not on the engine's scan order.
    val probe = new KSirEngine(g.model, WindowT, Lambda, eta = 1.0)
    buckets.takeWhile(_.endTs <= WindowT).foreach(probe.advance)
    var rSum = 0.0
    var iSum = 0.0
    probe.activeElements.toArray.sortBy(_.elem.id).foreach { ae =>
      ae.elem.topics.foreach { case (t, _) => rSum += ae.semantic(t); iSum += ae.influence(t) }
    }
    val eta = math.max(0.05, if (rSum > 0) iSum / rSum else 1.0)
    Dataset(cfg.name, g, eta, buckets)
  }

  lazy val aminer: Dataset = build(StreamConfig.aminer(NElements, SpanSeconds, seed = 101L))
  lazy val reddit: Dataset = build(StreamConfig.reddit(NElements, SpanSeconds, seed = 103L))
  lazy val twitter: Dataset = build(StreamConfig.twitter(NElements, SpanSeconds, seed = 107L))
  lazy val all: Seq[Dataset] = Seq(aminer, reddit, twitter)

  /** Replay a time-ordered query workload against one continuously-advanced
    * engine; `f` runs at each query's timestamp with the warmed engine.
    */
  def replay[A](ds: Dataset, queries: Seq[WorkloadQuery])(f: (KSirEngine, WorkloadQuery) => A): Seq[A] = {
    val sorted = queries.sortBy(_.ts)
    val engine = new KSirEngine(ds.gen.model, WindowT, Lambda, ds.eta)
    val bucketIt = ds.buckets.iterator.buffered
    sorted.map { wq =>
      while (bucketIt.hasNext && bucketIt.head.endTs <= wq.ts) engine.advance(bucketIt.next())
      f(engine, wq)
    }
  }

  def workload(ds: Dataset, n: Int, seed: Long): Seq[WorkloadQuery] =
    QueryGen.workload(ds.gen.model, n, WindowT, SpanSeconds, seed,
      corpus = Some(ds.gen.elements.map(_.words)))

  /** Render an aligned text table (also parsed by EXPERIMENTS.md readers). */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val widths = (header +: rows).transpose.map(_.map(_.length).max + 2)
    def fmt(cells: Seq[String]) = cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", "| ", "|")
    println()
    println(s"=== $title ===")
    println(fmt(header))
    println(widths.map("-" * _).mkString("|-", "|-", "|"))
    rows.foreach(r => println(fmt(r)))
    println()
  }
}
