package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{SocialStreamGen, StreamConfig}
import repro.spark.StreamingRankedLists
import scala.collection.mutable

/** The scoring kernel (CandidateState over ActiveElement's flat arrays)
  * against Equations 2–4 evaluated from scratch from the elements, the topic
  * model and the window's child sets; the σ/R_i kernel against the tuple
  * kernel it replaced; guards that a marginal gain, a child reference and a
  * scan of A_t allocate nothing; and a guard on what an ActiveElement keeps
  * alive.
  */
class ScoringKernelSpec extends AnyFunSuite {

  private val Window = 300L
  private val Lambda = 0.5
  private val Eta = 5.0

  /** f(S, x) by Equations 2–4, with the children of e taken as the elements of
    * `ingested` inside the window [windowStart, now] that refer to e.
    */
  private def reference(model: TopicModel, ingested: Seq[Element], windowStart: Long,
                        s: Seq[Element], q: QueryVector): Double = {
    val inWindow = ingested.filter(_.ts >= windowStart)
    q.entries.toSeq.map { case (i, xi) =>
      val best = mutable.Map.empty[Int, Double]
      s.foreach { e =>
        val pe = e.topics(i)
        if (pe > 0.0) e.wordFreqs.foreach { case (w, freq) =>
          val p = model.pWord(i, w) * pe
          val sigma = if (p > 0.0) -freq * p * math.log(p) else 0.0
          best(w) = math.max(best.getOrElse(w, 0.0), sigma)
        }
      }
      val r = best.values.sum
      val inf = inWindow.map { c =>
        val notReached = s.filter(e => c.refs.contains(e.id)).map(e => 1.0 - e.topics(i) * c.topics(i)).product
        1.0 - notReached
      }.sum
      xi * (Lambda * r + (1.0 - Lambda) / Eta * inf)
    }.sum
  }

  /** Random query on 1–3 topics drawn from the supports of `elems`, plus
    * every topic of `focus`.
    */
  private def randomQuery(rnd: scala.util.Random, elems: Seq[ActiveElement], focus: Option[ActiveElement]): QueryVector = {
    val drawn = Seq.fill(1 + rnd.nextInt(3))(elems(rnd.nextInt(elems.size)).elem.topics.idx.head)
    val topics = (focus.toSeq.flatMap(_.elem.topics.idx) ++ drawn).distinct
    val w = topics.map(_ => 0.1 + rnd.nextDouble())
    QueryVector(topics.zip(w.map(_ / w.sum)): _*)
  }

  /** Random add sequences over `pool`, checking gain, score and re-adds
    * against the reference; returns how many adds had an influence term.
    * A `focus` element is in every sequence and its topics in every query.
    */
  private def checkSequences(eng: KSirEngine, ingested: Seq[Element], pool: Seq[ActiveElement],
                             rnd: scala.util.Random, what: String, focus: Option[ActiveElement] = None): Int = {
    val ws = eng.now - Window + 1
    var withInfluence = 0
    (0 until 4).foreach { _ =>
      val q = randomQuery(rnd, pool, focus)
      val cs = new CandidateState(eng, q)
      var s = Vector.empty[Element]
      var fs = 0.0
      rnd.shuffle(focus.toSeq ++ rnd.shuffle(pool.filterNot(focus.contains)).take(8 - focus.size)).foreach { ae =>
        val fse = reference(eng.model, ingested, ws, s :+ ae.elem, q)
        assert(math.abs(cs.gain(ae) - (fse - fs)) < 1e-9, s"$what: gain of e${ae.elem.id} into ${s.map(_.id)}")
        cs.add(ae)
        s :+= ae.elem
        fs = fse
        assert(math.abs(cs.score - fs) < 1e-9, s"$what: f(${s.map(_.id)})")
        if (ae.childCount > 0 && q.entries.idx.exists(i => ae.influence(i) > 0.0)) withInfluence += 1
        val (size, score) = (cs.size, cs.score)
        cs.add(ae)
        assert(cs.size == size && cs.score == score, s"$what: re-adding e${ae.elem.id}")
      }
    }
    withInfluence
  }

  test("gain and score match Equations 2-4 from scratch, also after a middle child expires") {
    Seq(21L, 22L).foreach { seed =>
      // References reach back 4T, so discarded elements are resurrected.
      val g = SocialStreamGen.generate(StreamConfig.aminer(400, 1200, seed).copy(refLookback = 1200))
      val eng = new KSirEngine(g.model, Window, Lambda, Eta)
      val rnd = new scala.util.Random(seed)
      var ingested = Vector.empty[Element]
      var dropped = Set.empty[Long]
      var resurrected = 0
      var withInfluence = 0
      Bucket.bucketize(g.elements, 50, 1200).zipWithIndex.foreach { case (b, bi) =>
        eng.advance(b)
        ingested ++= b.elements
        val active = eng.activeElements.map(_.elem.id).toSet
        resurrected += (active & dropped).size
        dropped = ingested.map(_.id).toSet -- active
        if (bi % 4 == 3) {
          val pool = eng.activeElements.toSeq.sortBy(_.elem.id)
          val parents = pool.filter(_.childCount >= 2)
          withInfluence += checkSequences(eng, ingested, parents ++ rnd.shuffle(pool).take(10), rnd, s"seed $seed t=${b.endTs}")
        }
      }
      assert(resurrected > 0, s"seed $seed: no resurrection")
      assert(withInfluence > 0, s"seed $seed: no add carried an influence term")

      // A parent whose oldest children outlive a late child inserted between
      // them and a new one: the next advance expires the middle child only.
      val ws = eng.now - Window + 1
      val parent = eng.activeElements.toSeq.sortBy(_.elem.id)
        .find(ae => ae.childCount > 0 && Children.of(ae).forall(_._2 >= ws + 2))
        .getOrElse(fail(s"seed $seed: no parent with young children"))
      // Two children on the parent's topics with different distributions, so
      // the late child's p_i(c) cannot stand in for the young one's.
      val donors = ingested.filter(_.topics.idx.exists(t => parent.elem.topics(t) > 0.0))
      val donor2 = donors.find(e => e.topics.toSeq != donors.head.topics.toSeq).get
      val nextId = ingested.map(_.id).max + 1
      val late = donors.head.copy(id = nextId, ts = ws + 1, refs = Array(parent.elem.id))
      val young = donor2.copy(id = nextId + 1, ts = eng.now + 1, refs = Array(parent.elem.id))
      eng.advance(Bucket(eng.now + 1, Seq(young, late)))
      ingested ++= Seq(late, young)
      val before = Children.ids(parent)
      assert(before.takeRight(2) == Seq(late.id, young.id) && before.length >= 3)
      def pool = eng.activeElements.toSeq.sortBy(_.elem.id)
      checkSequences(eng, ingested, pool, rnd, s"seed $seed with the late child", Some(parent))
      eng.advance(Bucket(eng.now + 1, Seq.empty))
      assert(Children.ids(parent) == before.filterNot(_ == late.id), "only the middle child expired")
      checkSequences(eng, ingested, pool, rnd, s"seed $seed after the middle child expired", Some(parent))
    }
  }

  /** The (word, count) pairs of the `LongMap` counter the word bag replaced. */
  private def tupleWordFreqs(words: Array[Int]): Array[(Int, Int)] = {
    val m = mutable.LongMap.empty[Int]
    var i = 0
    while (i < words.length) { m(words(i).toLong) = m.getOrElse(words(i).toLong, 0) + 1; i += 1 }
    m.iterator.map { case (w, c) => (w.toInt, c) }.toArray.sortBy(_._1)
  }

  /** The σ row over those pairs, with the count negated as an Int. */
  private def tupleSigmaRow(model: TopicModel, freqs: Array[(Int, Int)], topic: Int, pe: Double): Array[Double] = {
    val row = new Array[Double](freqs.length)
    var k = 0
    while (k < row.length) {
      val p = model.pWord(topic, freqs(k)._1) * pe
      row(k) = if (p > 0.0) -freqs(k)._2 * p * math.log(p) else 0.0
      k += 1
    }
    row
  }

  /** R_i(e) over a tuple σ row, left to right from the first entry. */
  private def tupleRowSum(row: Array[Double]): Double = {
    var s = if (row.length == 0) 0.0 else row(0)
    var k = 1
    while (k < row.length) { s += row(k); k += 1 }
    s
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("σ rows and R_i equal the tuple kernel bit for bit on aminer- and twitter-like streams") {
    Seq(StreamConfig.aminer(800, 3600, 41L), StreamConfig.twitter(4000, 3600, 43L)).foreach { cfg =>
      val g = SocialStreamGen.generate(cfg)
      var repeatedWords = 0
      g.elements.foreach { e =>
        val ae = new ActiveElement(e, g.model, Lambda, Eta)
        val freqs = tupleWordFreqs(e.words)
        val what = s"${cfg.name} e${e.id}"
        assert(ae.wordIds.toSeq == freqs.map(_._1).toSeq, s"$what word ids")
        assert(!(ae.wordIds eq e.wordFreqs.idx), s"$what: word ids are a copy")
        if (freqs.exists(_._2 > 1)) repeatedWords += 1
        assert(ae.sigma.length == ae.topics.idx.length)
        ae.topics.idx.indices.foreach { j =>
          val (t, pe) = (ae.topics.idx(j), ae.topics.v(j))
          val row = tupleSigmaRow(g.model, freqs, t, pe)
          assert(ae.sigma(j).map(bits).toSeq == row.map(bits).toSeq, s"$what σ row of topic $t")
          assert(bits(ae.rScore(j)) == bits(tupleRowSum(row)), s"$what R_$t")
          assert(bits(StreamingRankedLists.semantic(g.model, e.wordFreqs, t, pe)) == bits(tupleRowSum(row)), s"$what event R_$t")
        }
      }
      assert(repeatedWords > g.elements.length / 10, s"${cfg.name}: enough documents repeat a word")
    }
  }

  test("a marginal gain allocates nothing once warmed up") {
    val g = SocialStreamGen.generate(StreamConfig.aminer(1500, 3600, 31L))
    val eng = new KSirEngine(g.model, 1800L, Lambda, Eta)
    Bucket.bucketize(g.elements, 300, 3600).foreach(eng.advance)
    val parents = eng.activeElements.filter(_.childCount >= 2).toSeq.sortBy(_.elem.id)
    val topics = parents.map(_.elem.topics.idx.head).distinct
    val q = QueryVector(topics(0) -> 0.6, topics(1) -> 0.4)
    val onQuery = eng.activeElements.filter(ae => q.entries.idx.exists(i => ae.elem.topics(i) > 0.0)).toArray.sortBy(_.elem.id)
    val k = 10
    val cs = new CandidateState(eng, q)
    onQuery.take(k).foreach(cs.add)
    assert(cs.size == k)
    val probes = onQuery.drop(k)
    assert(probes.count(_.childCount > 0) >= 10, "probes exercise the influence loop")
    val calls = 10000
    def run(): Double = {
      var sum = 0.0
      var i = 0
      while (i < calls) { sum += cs.gain(probes(i % probes.length)); i += 1 }
      sum
    }
    (0 until 5).foreach(_ => run())
    var sum = 0.0
    val bytes = allocated { sum = run() }
    assert(sum > 0.0)
    val perCall = bytes.toDouble / calls
    assert(perCall < 8.0, s"gain allocated $perCall bytes per call")
  }

  test("a reference into a warmed parent with spare child capacity allocates nothing") {
    val g = SocialStreamGen.generate(StreamConfig.aminer(50, 3600, 33L))
    val parent = new ActiveElement(g.elements(0), g.model, Lambda, Eta)
    // One child stays in the window; the other is added and expired again.
    parent.addChild(g.elements(1).copy(ts = 1000L))
    val child = g.elements(2).copy(ts = 10L)
    val calls = 10000
    def run(): Int = {
      var dropped = 0
      var i = 0
      while (i < calls) {
        parent.addChild(child)
        if (parent.expireChildren(11L)) dropped += 1
        i += 1
      }
      dropped
    }
    (0 until 5).foreach(_ => run())
    var dropped = 0
    val perCall = allocated { dropped = run() }.toDouble / calls
    assert(dropped == calls)
    assert(perCall < 8.0, s"a child reference allocated $perCall bytes")
    assert(Children.of(parent) == Seq((1L, 1000L)))
  }

  test("a scan of A_t allocates nothing per element") {
    val g = SocialStreamGen.generate(StreamConfig.twitter(3000, 3600, 35L))
    val eng = new KSirEngine(g.model, 1800L, Lambda, Eta)
    Bucket.bucketize(g.elements, 300, 3600).foreach(eng.advance)
    assert(eng.activeCount >= 1000)
    val scans = 20
    def run(): Double = {
      var sum = 0.0
      var i = 0
      while (i < scans) { eng.activeElements.foreach(ae => sum += ae.rScore(0)); i += 1 }
      sum
    }
    (0 until 5).foreach(_ => run())
    var sum = 0.0
    val bytes = allocated { sum = run() }
    assert(sum > 0.0)
    val perElement = bytes.toDouble / (scans.toLong * eng.activeCount)
    assert(perElement < 1.0, s"a scan allocated $perElement bytes per element")
  }

  test("ActiveElement keeps no collection, topic model or word bag as a field") {
    val held = classOf[ActiveElement].getDeclaredFields.toSeq.filter { f =>
      val t = f.getType
      t.getName.startsWith("scala.collection.") || t == classOf[TopicModel] ||
        (t == classOf[SparseVec] && f.getName != "topics")
    }
    assert(held.isEmpty, held.map(f => s"${f.getName}: ${f.getType.getName}").mkString(", "))
    // The per-topic scalars share one array, and so do the child (id, ts) rows:
    // two Array[Double] (per-topic scalars, child p rows) and one Array[Long].
    val arrays = classOf[ActiveElement].getDeclaredFields.toSeq.filter(_.getType.isArray)
    val what = arrays.map(f => s"${f.getName}: ${f.getType.getSimpleName}").mkString(", ")
    assert(arrays.count(_.getType == classOf[Array[Double]]) == 2, what)
    assert(arrays.count(_.getType == classOf[Array[Long]]) == 1, what)
  }

  /** Bytes the current thread allocates while running `body`. */
  private def allocated(body: => Unit): Long = {
    val bean = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val tid = Thread.currentThread().getId
    val a0 = bean.getThreadAllocatedBytes(tid)
    body
    bean.getThreadAllocatedBytes(tid) - a0
  }
}
