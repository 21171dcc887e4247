package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Bucket

/** The synthetic stream generator must reproduce the shape statistics of the
  * paper's Table 3 datasets (DESIGN.md §5) and satisfy the structural
  * invariants the engine relies on.
  */
class SocialStreamGenSpec extends AnyFunSuite {

  private lazy val aminer = SocialStreamGen.generate(StreamConfig.aminer(2000, span = 200000))
  private lazy val reddit = SocialStreamGen.generate(StreamConfig.reddit(2000, span = 200000))
  private lazy val twitter = SocialStreamGen.generate(StreamConfig.twitter(2000, span = 200000))

  test("generation is deterministic in the seed") {
    val a = SocialStreamGen.generate(StreamConfig.aminer(100, 1000))
    val b = SocialStreamGen.generate(StreamConfig.aminer(100, 1000))
    assert(a.elements.map(_.id) == b.elements.map(_.id))
    assert(a.elements.map(_.words.toSeq) == b.elements.map(_.words.toSeq))
    assert(a.elements.map(_.refs.toSeq) == b.elements.map(_.refs.toSeq))
  }

  test("different seeds give different streams") {
    val a = SocialStreamGen.generate(StreamConfig.aminer(100, 1000, seed = 1))
    val b = SocialStreamGen.generate(StreamConfig.aminer(100, 1000, seed = 2))
    assert(a.elements.map(_.words.toSeq) != b.elements.map(_.words.toSeq))
  }

  test("timestamps are non-decreasing and within the span") {
    val ts = aminer.elements.map(_.ts)
    assert(ts == ts.sorted)
    assert(ts.head >= 1 && ts.last <= 200000)
  }

  test("references always point strictly backwards in time") {
    val byId = aminer.elements.map(e => e.id -> e).toMap
    aminer.elements.foreach { e =>
      e.refs.foreach { r =>
        assert(byId(r).ts < e.ts, s"element ${e.id} refs $r not strictly older")
      }
    }
  }

  test("average document length tracks the config (AMiner-like ≈ 49.2)") {
    val avg = aminer.elements.map(_.words.length).sum.toDouble / aminer.elements.size
    assert(math.abs(avg - 49.2) < 49.2 * 0.1, s"got $avg")
  }

  test("average document length tracks the config (Twitter-like ≈ 5.1)") {
    val avg = twitter.elements.map(_.words.length).sum.toDouble / twitter.elements.size
    assert(math.abs(avg - 5.1) < 5.1 * 0.15, s"got $avg")
  }

  test("average references track the config on all three datasets") {
    Seq((aminer, 3.68), (reddit, 0.85), (twitter, 0.62)).foreach { case (g, want) =>
      val avg = g.elements.map(_.refs.length).sum.toDouble / g.elements.size
      assert(math.abs(avg - want) < want * 0.35, s"${g.config.name}: got $avg want ≈$want")
    }
  }

  test("topic distributions are sparse (< 2 topics per element on average, per §4)") {
    val avg = aminer.elements.map(_.topics.idx.length).sum.toDouble / aminer.elements.size
    assert(avg < 2.0, s"got $avg")
    assert(avg >= 1.0)
  }

  test("topic distributions are normalized") {
    aminer.elements.take(200).foreach { e =>
      assert(math.abs(e.topics.v.sum - 1.0) < 1e-9)
      e.topics.foreach { case (_, p) => assert(p > 0) }
    }
  }

  test("topic-word rows are normalized distributions") {
    val m = aminer.model
    (0 until m.z).foreach { i =>
      val s = (0 until m.vocabSize).map(m.pWord(i, _)).sum
      assert(math.abs(s - 1.0) < 1e-9)
    }
  }

  test("word frequencies are Zipf-skewed (top decile carries most mass)") {
    val counts = twitter.elements.flatMap(_.words).groupBy(identity).map(_._2.size).toSeq.sortBy(-_.toInt)
    val total = counts.sum.toDouble
    val topDecile = counts.take(math.max(1, counts.size / 10)).sum / total
    assert(topDecile > 0.3, s"top-decile word mass $topDecile")
  }

  test("references are topic-correlated (most refs share the dominant topic)") {
    val byId = aminer.elements.map(e => e.id -> e).toMap
    val pairs = for {
      e <- aminer.elements; r <- e.refs
    } yield (e.topics.toSeq.maxBy(_._2)._1, byId(r).topics.toSeq.maxBy(_._2)._1)
    val same = pairs.count(p => p._1 == p._2).toDouble / pairs.size
    assert(same > 0.5, s"same-dominant-topic ratio $same")
  }

  test("reference in-degree is skewed (preferential attachment)") {
    val indeg = aminer.elements.flatMap(_.refs).groupBy(identity).map(_._2.size).toSeq.sortBy(-_.toInt)
    val total = indeg.sum.toDouble
    val top = indeg.take(math.max(1, indeg.size / 10)).sum / total
    assert(top > 0.2, s"top-decile in-degree mass $top")
  }

  test("the generated stream feeds the engine without errors") {
    val g = SocialStreamGen.generate(StreamConfig.reddit(500, 5000))
    val eng = new repro.core.KSirEngine(g.model, 2000, 0.5, 20.0)
    Bucket.bucketize(g.elements, 500, 5000).foreach(eng.advance)
    assert(eng.activeCount > 0)
  }

  /** FNV-1a over every element's id, ts, words, refs, topic ids and raw
    * topic-mass bits, and author.
    */
  private def digest(elements: Seq[repro.core.Element]): Long = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = h = (h ^ x) * 0x100000001b3L
    elements.foreach { e =>
      mix(e.id); mix(e.ts)
      mix(e.words.length); e.words.foreach(w => mix(w.toLong))
      mix(e.refs.length); e.refs.foreach(mix)
      mix(e.topics.idx.length); e.topics.idx.foreach(t => mix(t.toLong))
      e.topics.v.foreach(p => mix(java.lang.Double.doubleToRawLongBits(p)))
      mix(e.author)
    }
    h
  }

  test("every element of a stream is pinned by its digest, on all three shapes") {
    // Reddit's and Twitter's reference lookback is a quarter of the span, so
    // their reference pools lose a prefix at each trim past the first quarter:
    // three times in 2 000 elements and about 30 times in 20 000.
    val pinned = Seq(
      "aminer" -> (aminer, 0x93be2a6c1f531841L),
      "reddit" -> (reddit, 0xf34003c5cb18df6fL),
      "twitter" -> (twitter, 0x8054d2956b9409f5L),
      "long twitter" -> (SocialStreamGen.generate(StreamConfig.twitter(20000, 3 * 24 * 3600, seed = 107L)), 0x1d48a398bf05e75aL),
    )
    val wrong = pinned.collect { case (name, (g, want)) if digest(g.elements) != want =>
      f"$name: ${digest(g.elements)}%016x"
    }
    assert(wrong.isEmpty, wrong.mkString(", "))
  }

  test("QueryGen produces 1–5 keywords and normalized sparse vectors") {
    val ws = QueryGen.workload(aminer.model, 50, 100, 1000, seed = 3L)
    assert(ws.nonEmpty)
    ws.foreach { w =>
      assert(w.keywords.size >= 1 && w.keywords.size <= 5)
      assert(w.ts >= 100 && w.ts <= 1000)
      assert(math.abs(w.vector.entries.v.sum - 1.0) < 1e-9)
      assert(w.vector.d <= 5)
    }
  }

  test("QueryGen is deterministic in the seed") {
    val a = QueryGen.workload(aminer.model, 20, 1, 100, seed = 5L)
    val b = QueryGen.workload(aminer.model, 20, 1, 100, seed = 5L)
    assert(a.map(_.keywords) == b.map(_.keywords))
    assert(a.map(_.ts) == b.map(_.ts))
  }
}
