package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Element, SparseVec, TopicModel}
import scala.collection.mutable
import scala.util.Random

/** Shape parameters of a synthetic social stream. Defaults mirror the
  * post-preprocessing statistics the paper reports in Table 3 (average
  * document length and average references per element), scaled down in
  * element count / vocabulary per DESIGN.md §5.
  *
  * @param name        dataset label ("aminer" / "reddit" / "twitter")
  * @param nElements   stream length
  * @param vocabSize   vocabulary size m
  * @param z           number of topics in the generative topic model
  * @param avgLen      mean words per document (Poisson)
  * @param avgRefs     mean references per element (Poisson, capped)
  * @param spanSeconds stream duration; timestamps spread uniformly over it
  * @param refLookback how far back references may point (seconds)
  */
final case class StreamConfig(
    name: String,
    nElements: Int,
    vocabSize: Int,
    z: Int,
    avgLen: Double,
    avgRefs: Double,
    spanSeconds: Long,
    refLookback: Long,
    seed: Long = 7L,
)

object StreamConfig {
  /** AMiner-like: long docs, dense citation graph (Table 3: 49.2 / 3.68). */
  def aminer(n: Int, span: Long, seed: Long = 11L): StreamConfig =
    StreamConfig("aminer", n, vocabSize = 3000, z = 50, avgLen = 49.2, avgRefs = 3.68,
      spanSeconds = span, refLookback = span, seed = seed)

  /** Reddit-like: short comments, sparse refs (Table 3: 8.6 / 0.85). */
  def reddit(n: Int, span: Long, seed: Long = 13L): StreamConfig =
    StreamConfig("reddit", n, vocabSize = 3000, z = 50, avgLen = 8.6, avgRefs = 0.85,
      spanSeconds = span, refLookback = span / 4, seed = seed)

  /** Twitter-like: very short docs, sparsest refs (Table 3: 5.1 / 0.62). */
  def twitter(n: Int, span: Long, seed: Long = 17L): StreamConfig =
    StreamConfig("twitter", n, vocabSize = 3000, z = 50, avgLen = 5.1, avgRefs = 0.62,
      spanSeconds = span, refLookback = span / 4, seed = seed)
}

/** Generates a deterministic synthetic social stream together with the
  * generative topic model that produced it. Substitutes the paper's crawled
  * AMiner/Reddit/Twitter datasets (DESIGN.md §5): same shape statistics —
  * Zipfian vocabulary, sparse element-topic distributions (< 2 topics on
  * average), topic-correlated preferential-attachment references.
  */
object SocialStreamGen {

  final case class Generated(model: TopicModel, elements: IndexedSeq[Element], config: StreamConfig)

  /** Probability that a reference targets an element sharing the dominant
    * topic (topic-correlated influence, which the paper's Example 2 relies on).
    */
  private val SameTopicP = 0.8

  /** Most references one element makes. */
  private val MaxRefs = 10

  /** Exponent of each topic's Zipfian word distribution. */
  private val ZipfAlpha = 1.05

  /** Topic-word matrix: each topic is a Zipf distribution over its own
    * permutation of the vocabulary, so topics overlap but have distinct
    * high-probability words (as trained LDA topics do).
    */
  def topicModel(z: Int, vocabSize: Int, seed: Long): TopicModel = {
    val rnd = new Random(seed)
    val rows = Array.tabulate(z) { _ =>
      val perm = rnd.shuffle((0 until vocabSize).toList).toArray
      val raw = new Array[Double](vocabSize)
      var r = 0
      while (r < vocabSize) { raw(perm(r)) = 1.0 / math.pow(r + 1.0, ZipfAlpha); r += 1 }
      val norm = raw.sum
      raw.map(_ / norm)
    }
    new TopicModel(z, vocabSize, rows)
  }

  def generate(config: StreamConfig): Generated = {
    val rnd = new Random(config.seed)
    val model = topicModel(config.z, config.vocabSize, config.seed * 31 + 1)
    // Per-topic cumulative distributions for word sampling.
    val cdfs = model.topicWord.map(cumulative)

    // Topic popularity is itself mildly Zipfian: some topics trend, but (as
    // in the paper's corpora) every sizable topic has its own viral
    // elements — the cross-topic skew is kept moderate so influence is not
    // concentrated in one or two topics.
    val topicRank = rnd.shuffle((0 until config.z).toList).toArray
    val topicCdf = {
      val raw = Array.tabulate(config.z)(r => 1.0 / math.pow(r + 1.0, 0.45))
      val norm = raw.sum
      cumulative(raw.map(_ / norm))
    }
    def drawTopic(): Int = topicRank(search(topicCdf, rnd.nextDouble()))

    def poisson(mean: Double): Int = {
      // Knuth's method; means here are small (< 60).
      val limit = math.exp(-mean)
      var k = 0
      var p = 1.0
      while ({ p *= rnd.nextDouble(); p > limit }) k += 1
      k
    }

    // Recent-element pools for reference targeting.
    val recentByTopic = Array.fill(config.z)(mutable.ArrayBuffer.empty[Int]) // element idx
    val recentAll = mutable.ArrayBuffer.empty[Int]
    val inDegree = mutable.ArrayBuffer.empty[Int]
    val out = mutable.ArrayBuffer.empty[Element]

    // Authors post with Zipfian frequency (prolific authors exist, as the
    // author-reputation baseline expects).
    val nAuthors = math.max(10, config.nElements / 20)
    val authorCdf = {
      val raw = Array.tabulate(nAuthors)(r => 1.0 / (r + 1.0))
      val norm = raw.sum
      cumulative(raw.map(_ / norm))
    }

    val authorPosts = new Array[Int](nAuthors)

    var idx = 0
    while (idx < config.nElements) {
      val ts = 1L + (config.spanSeconds - 1) * idx / math.max(1, config.nElements - 1)

      // Sparse topic distribution: 1–3 topics, dominant-heavy.
      val nTopics = 1 + (if (rnd.nextDouble() < 0.45) 1 else 0) + (if (rnd.nextDouble() < 0.15) 1 else 0)
      val chosen = mutable.LinkedHashSet.empty[Int]
      while (chosen.size < nTopics) chosen += drawTopic()
      val weights = chosen.toArray.zipWithIndex.map { case (t, i) =>
        (t, if (i == 0) 0.6 + 0.4 * rnd.nextDouble() else rnd.nextDouble())
      }
      val wNorm = weights.map(_._2).sum
      val topics = SparseVec(weights.map { case (t, w) => (t, w / wNorm) }.sortBy(_._1).toSeq: _*)
      val dominant = weights.maxBy(_._2)._1

      // Words drawn from the element's topic mixture.
      val len = math.max(1, poisson(config.avgLen))
      val topicsCdf = cumulative(topics.v)
      val words = Array.fill(len) {
        val t = topics.idx(search(topicsCdf, rnd.nextDouble()))
        search(cdfs(t), rnd.nextDouble())
      }

      // References: mostly same-dominant-topic recent elements, preferential
      // by in-degree (trending posts attract more retweets/citations).
      val minTs = ts - config.refLookback
      val nRefs = math.min(MaxRefs, poisson(config.avgRefs))
      val refs = mutable.LinkedHashSet.empty[Long]
      var tries = 0
      while (refs.size < nRefs && tries < nRefs * 8) {
        tries += 1
        val pool =
          if (rnd.nextDouble() < SameTopicP && recentByTopic(dominant).nonEmpty) recentByTopic(dominant)
          else recentAll
        if (pool.nonEmpty) {
          // Preferential attachment: sample two, keep the more attractive —
          // by in-degree (trending content) plus author reputation (the
          // celebrity effect: prolific/famous authors get referenced more,
          // which is what author-PageRank-based methods exploit).
          def attractiveness(i: Int): Double =
            inDegree(i) + 1.5 * math.log1p(authorPosts(out(i).author.toInt).toDouble)
          val a = pool(rnd.nextInt(pool.length))
          val b = pool(rnd.nextInt(pool.length))
          val pick = if (attractiveness(a) >= attractiveness(b)) a else b
          if (out(pick).ts < ts && out(pick).ts >= minTs) refs += out(pick).id
        }
      }
      refs.foreach(id => inDegree(id.toInt) += 1)

      val author = search(authorCdf, rnd.nextDouble())
      authorPosts(author) += 1
      out += Element(idx.toLong, ts, words, refs.toArray, topics, author = author.toLong)
      inDegree += 0
      recentAll += idx
      recentByTopic(dominant) += idx
      // Keep pools bounded: drop indices that fell out of the lookback.
      if (idx % 512 == 0) {
        trimPool(recentAll, out, minTs)
        recentByTopic.foreach(trimPool(_, out, minTs))
      }
      idx += 1
    }
    Generated(model, out.toIndexedSeq, config)
  }

  /** Drops the indices of elements older than `minTs`. A pool holds indices
    * in increasing order and ts does not fall as the index rises, so they
    * are a prefix.
    */
  private def trimPool(pool: mutable.ArrayBuffer[Int], out: mutable.ArrayBuffer[Element], minTs: Long): Unit = {
    var n = 0
    while (n < pool.length && out(pool(n)).ts < minTs) n += 1
    pool.remove(0, n)
  }

  /** Running sums of `p`, added left to right: the cumulative distribution
    * that [[search]] samples from.
    */
  private[data] def cumulative(p: Array[Double]): Array[Double] = {
    val c = new Array[Double](p.length)
    var acc = 0.0
    var i = 0
    while (i < p.length) { acc += p(i); c(i) = acc; i += 1 }
    c
  }

  /** First index whose cumulative value is at least u (binary search). */
  private[data] def search(cdf: Array[Double], u: Double): Int = {
    var lo = 0
    var hi = cdf.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cdf(mid) < u) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The stream as a DataFrame, the input of Table 3's statistics. */
  def toDF(spark: SparkSession, elements: Seq[Element]): DataFrame = {
    import spark.implicits._
    elements
      .map(e => (e.id, e.ts, e.words.toSeq, e.refs.toSeq, e.topics.toSeq))
      .toDF("id", "ts", "words", "refs", "topics")
  }
}
