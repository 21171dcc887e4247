package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{array_distinct, avg, col, collect_list, flatten, lit, size, sum}
import repro.baselines._
import repro.core._
import repro.data.SocialStreamGen
import repro.metrics.EvalMetrics

/** The computations behind each reproduced table; the `bench/` suites print
  * them beside the paper's values and assert their shape.
  */
object Tables {

  val Methods = Seq("TF-IDF", "DIV", "Sumblr", "REL", "k-SIR")

  // ----- Table 3 --------------------------------------------------------

  final case class Stats(name: String, elements: Long, vocab: Int, avgLen: Double, avgRefs: Double)

  def table3(spark: SparkSession): Seq[Stats] =
    BenchData.all.map { ds =>
      val r = datasetStats(SocialStreamGen.toDF(spark, ds.gen.elements)).collect().head
      Stats(ds.name, r.getLong(0), r.getInt(1), r.getDouble(2), r.getDouble(3))
    }

  /** Table 3 statistics of a stream DataFrame (id, ts, words, refs, topics):
    * element count, distinct vocabulary, average document length, average
    * references per element.
    */
  def datasetStats(stream: DataFrame): DataFrame =
    stream
      .select(
        lit(1) as "one",
        size(col("words")) as "len",
        size(col("refs")) as "nrefs",
        col("words"),
      )
      .agg(
        sum("one") as "elements",
        size(array_distinct(flatten(collect_list(col("words"))))) as "vocab",
        avg("len") as "avg_length",
        avg("nrefs") as "avg_refs",
      )

  // ----- Tables 5 and 6 -------------------------------------------------

  private def runMethods(eng: KSirEngine, wq: repro.data.WorkloadQuery, k: Int): Map[String, Seq[Long]] =
    Map(
      "TF-IDF" -> TfIdf.query(eng, wq.keywords, k),
      "DIV" -> DivQuery.query(eng, wq.keywords, k),
      "Sumblr" -> Sumblr.query(eng, wq.keywords, k),
      "REL" -> TopKRelevance.query(eng, wq.vector, k),
      "k-SIR" -> MTTD.query(eng, wq.vector, k, BenchData.Epsilon).elements,
    )

  final case class Table5Row(dataset: String, repr: Map[String, Double], impact: Map[String, Double])

  /** Table 5 proxy: rank methods per query on representativeness
    * (relevance × word-level coverage) and impact (windowed references
    * received), ranks 1..5 averaged. See DESIGN.md §5 for the substitution.
    */
  def table5(nQueries: Int, k: Int): Seq[Table5Row] =
    BenchData.all.map { ds =>
      val queries = BenchData.workload(ds, nQueries, seed = 501L)
      val perQuery = BenchData.replay(ds, queries) { (eng, wq) =>
        val results = runMethods(eng, wq, k)
        val idx = new TfIdfIndex(eng)
        val repr = results.map { case (m, s) =>
          val rels = s.flatMap(eng.activeElement).map(ae =>
            ae.elem.topics.cosine(wq.vector.entries))
          val meanRel = if (rels.isEmpty) 0.0 else rels.sum / rels.size
          m -> (meanRel * EvalMetrics.coverageTfIdf(eng, idx, s, wq.vector))
        }
        val impact = results.map { case (m, s) => m -> s.map(eng.childCount(_).toDouble).sum }
        (repr, impact)
      }
      Table5Row(ds.name,
        EvalMetrics.rankScores(perQuery.map(_._1)),
        EvalMetrics.rankScores(perQuery.map(_._2)))
    }

  final case class Table6Row(dataset: String, coverage: Map[String, Double], influence: Map[String, Double])

  /** Table 6: mean coverage (relevance-weighted best word-level similarity)
    * and influence (referrers of S over referrers of the top-k most
    * referred) per method per dataset.
    */
  def table6(nQueries: Int, k: Int): Seq[Table6Row] =
    BenchData.all.map { ds =>
      val queries = BenchData.workload(ds, nQueries, seed = 601L)
      val perQuery = BenchData.replay(ds, queries) { (eng, wq) =>
        val results = runMethods(eng, wq, k)
        val idx = new TfIdfIndex(eng)
        results.map { case (m, s) =>
          m -> (EvalMetrics.coverageTfIdf(eng, idx, s, wq.vector), EvalMetrics.influence(eng, s, k))
        }
      }
      Table6Row(ds.name,
        Methods.map(m => m -> perQuery.map(_(m)._1).sum / perQuery.size).toMap,
        Methods.map(m => m -> perQuery.map(_(m)._2).sum / perQuery.size).toMap)
    }

  // ----- Efficiency (§5.3) ----------------------------------------------

  final class MethodStats {
    var ms = 0.0
    var score = 0.0
    var evaluated = 0L
  }

  val EffMethods = Seq("CELF", "Sieve", "Top-k Rep", "MTTS", "MTTD")

  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** `f`'s result and the median of three back-to-back timings of it, so
    * that one slow run (a GC pause, a cold cache) does not set the figure.
    */
  private def medianMs[A](f: => A): (A, Double) = {
    val (r, a) = timeMs(f)
    val b = timeMs(f)._2
    val c = timeMs(f)._2
    (r, math.max(math.min(a, b), math.min(math.max(a, b), c)))
  }

  /** Run the five k-SIR processing methods over a replayed workload, timing
    * each query of each method by [[medianMs]]; the first five queries are
    * executed but not recorded (JIT warmup).
    */
  def efficiency(ds: BenchData.Dataset, k: Int, eps: Double, nQueries: Int):
      (Map[String, MethodStats], Long) = {
    val acc = EffMethods.map(_ -> new MethodStats).toMap
    var totalActive = 0L
    var i = 0
    val warmup = 5
    val queries = BenchData.workload(ds, nQueries + warmup, seed = 701L)
    BenchData.replay(ds, queries) { (eng, wq) =>
      val record = i >= warmup
      i += 1
      if (record) totalActive += eng.activeCount
      def note(m: String, r: (KSirResult, Double)): Unit = if (record) {
        acc(m).ms += r._2; acc(m).score += r._1.score; acc(m).evaluated += r._1.evaluated
      }
      note("CELF", medianMs(Celf.query(eng, wq.vector, k)))
      note("Sieve", medianMs(SieveStreaming.query(eng, wq.vector, k, eps)))
      note("Top-k Rep", medianMs(TopKRepresentative.query(eng, wq.vector, k)))
      note("MTTS", medianMs(MTTS.query(eng, wq.vector, k, eps)))
      note("MTTD", medianMs(MTTD.query(eng, wq.vector, k, eps)))
    }
    (acc, totalActive)
  }
}
