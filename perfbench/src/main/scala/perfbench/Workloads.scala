package perfbench

import repro.core._
import repro.data.{QueryGen, SocialStreamGen, StreamConfig}

/** The query algorithms the benchmark calls, in the order they run on a query. */
sealed abstract class Method(val name: String)
object Method {
  case object Mttd extends Method("mttd")
  case object Mtts extends Method("mtts")
  case object TopK extends Method("topk")
  case object Celf extends Method("celf")
  case object Sieve extends Method("sieve")
  val all: Seq[Method] = Seq(Mttd, Mtts, TopK, Celf, Sieve)
  /** Methods whose answers are fixed by the ranked lists' total order. */
  val indexed: Seq[Method] = Seq(Mttd, Mtts, TopK)
}

/** One benchmark workload: a synthetic stream shape, a bucket length and a
  * query mix over a timed segment of the stream. All share T = 24 h,
  * λ = 0.5, k = 10, ε = 0.1 and z = 50, the paper's Table 4 defaults.
  *
  * @param config      stream shape for a given generator seed
  * @param bucketL     bucket length L in seconds
  * @param segment     length of the timed segment, which starts at t = T
  * @param nQueries    queries generated over the timed segment; MTTD, MTTS
  *                    and Top-k Rep run on every one
  * @param celfSample  queries, spread over the segment, on which CELF and
  *                    SieveStreaming run too (the CELF subsample)
  */
final case class Workload(
    name: String,
    config: Long => StreamConfig,
    bucketL: Long,
    segment: Long,
    nQueries: Int,
    celfSample: Int,
)

object Workloads {
  val WindowT: Long = 24L * 3600
  val SpanSeconds: Long = 3L * 24 * 3600
  val Lambda = 0.5
  val K = 10
  val Epsilon = 0.1

  val all: Seq[Workload] = Seq(
    // Read-heavy at n_t ≈ 4·10⁴: ranked-list traversal and the index-free
    // baselines' Θ(n_t) scans dominate; σ arrays are short (5-word docs).
    Workload("tw-query", s => StreamConfig.twitter(96000, SpanSeconds, seed = s),
      bucketL = 15L * 60, segment = 26L * 3600, nQueries = 1200, celfSample = 40),
    // Long documents and dense citations with a 3-day lookback: ActiveElement
    // construction and CandidateState.gain dominate; resurrections occur.
    Workload("am-dense", s => StreamConfig.aminer(12000, SpanSeconds, seed = s),
      bucketL = 15L * 60, segment = 2 * WindowT, nQueries = 1200, celfSample = 40),
    // Write-heavy: 1-minute buckets make the per-bucket O(n_t) expiry scans
    // dominate; 2.5 cheap queries per bucket give the p99s their thousand
    // samples while ingest keeps most of the time.
    Workload("rd-ingest", s => StreamConfig.reddit(96000, SpanSeconds, seed = s),
      bucketL = 60L, segment = 6L * 3600, nQueries = 1200, celfSample = 32),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Fixed generator seed of the reference stream whose result digest is
    * recorded in `digests.json`; independent of `--seed`.
    */
  val ReferenceSeed = 20190326L
  /** The `--seed` at which the timed stream's first-pass digests are recorded
    * in `digests.json` too, so the full-size answers are checked against the
    * record when a run uses it.
    */
  val DigestSeed = 1L
  val ReferenceElements = 12000
  val ReferenceQueries = 32
}

/** A query due at `ts`, with the methods to run on it. */
final case class PlannedQuery(index: Int, vector: QueryVector, ts: Long, methods: Seq[Method])

/** Everything a replay needs, derived from a workload and a seed: the stream,
  * its buckets, the data-derived η, and the time-ordered queries.
  */
final class Inputs(
    val streamSeed: Long,
    val querySeed: Long,
    val gen: SocialStreamGen.Generated,
    val eta: Double,
    val firstWindow: Bucket,
    val timedBuckets: IndexedSeq[Bucket],
    val warmQueries: IndexedSeq[QueryVector],
    val queries: IndexedSeq[PlannedQuery],
) {
  import Workloads._

  /** Fresh engine holding the first window, ingested as one bucket ending at
    * t = T. Nothing expires before T (every timestamp is ≥ 1 = T − T + 1),
    * so this is the state a bucket-by-bucket replay of the window reaches.
    */
  def loadedEngine(): KSirEngine = {
    val e = new KSirEngine(gen.model, WindowT, Lambda, eta)
    e.advance(firstWindow)
    e
  }
}

object Inputs {
  import Workloads._

  private def mix(seed: Long, salt: Long): Long = {
    var x = seed * 0x9E3779B97F4A7C15L + salt
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  def forSeed(w: Workload, seed: Long): Inputs =
    build(w, w.config(mix(seed, 1L)), mix(seed, 2L), w.nQueries, w.celfSample, w.segment)

  /** The reference stream: the workload's shape at a fixed seed, capped at
    * [[Workloads.ReferenceElements]] elements so checking it stays cheap;
    * every method runs on every reference query.
    */
  def reference(w: Workload): Inputs = {
    val c = w.config(ReferenceSeed)
    build(w, c.copy(nElements = math.min(c.nElements, ReferenceElements)), ReferenceSeed + 1,
      ReferenceQueries, ReferenceQueries, WindowT)
  }

  private def build(w: Workload, cfg: StreamConfig, querySeed: Long, nQueries: Int, celfSample: Int, segment: Long): Inputs = {
    val gen = SocialStreamGen.generate(cfg)
    val window = gen.elements.filter(_.ts <= WindowT)
    val timed = Bucket.bucketize(gen.elements, w.bucketL, SpanSeconds)
      .filter(b => b.endTs > WindowT && b.endTs <= WindowT + segment).toIndexedSeq
    val eta = deriveEta(gen, Bucket(WindowT, window))
    val corpus = Some(gen.elements.map(_.words))
    val qs = QueryGen.workload(gen.model, nQueries, WindowT + 1, WindowT + segment - 1, querySeed, corpus = corpus)
      .sortBy(_.ts)
    val warmQs = QueryGen.workload(gen.model, 32, WindowT, WindowT, querySeed ^ 0x5bd1e995L, corpus = corpus)
      .map(_.vector)
    val stride = math.max(1, qs.length / celfSample)
    val planned = qs.zipWithIndex.map { case (q, i) =>
      val full = i % stride == 0 && i / stride < celfSample
      PlannedQuery(i, q.vector, q.ts, if (full) Method.all else Method.indexed)
    }
    new Inputs(cfg.seed, querySeed, gen, eta, Bucket(WindowT, window), timed, warmQs, planned)
  }

  /** η as mean singleton influence over mean semantic score of the first
    * window, so both terms of Equation 2 matter.
    */
  private def deriveEta(gen: SocialStreamGen.Generated, firstWindow: Bucket): Double = {
    val probe = new KSirEngine(gen.model, WindowT, Lambda, eta = 1.0)
    probe.advance(firstWindow)
    var rSum = 0.0
    var iSum = 0.0
    probe.activeElements.foreach { ae =>
      ae.elem.topics.foreach { case (t, _) => rSum += ae.semantic(t); iSum += ae.influence(t) }
    }
    math.max(0.05, if (rSum > 0) iSum / rSum else 1.0)
  }
}
