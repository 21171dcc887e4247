package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{ActiveElement, Bucket, RankedList, SparseVec, TopicModel}

/** Event delivered to the per-topic stateful operator: a partial entry of
  * topic `topic`'s list, or `None`, a tick forcing expiry on topics with no
  * arrivals (Alg. 1 l. 12–13). An insert (l. 4–7) is the element's own entry
  * with no children; a reference c→p (l. 8–11) is p's insert entry with the
  * one child c, routed to every topic of p's support, so a discarded parent is
  * resurrected by the rule that inserts it.
  */
final case class TopicEvent(topic: Int, bucketEnd: Long, elem: Option[StatefulElem])

final case class ChildEntry(childId: Long, childTs: Long, pChild: Double)

/** One list entry: R_i(e) = `rScore`, p_i(e) = `pe`, in-window children in arrival order. */
final case class StatefulElem(id: Long, ts: Long, rScore: Double, pe: Double, children: List[ChildEntry])

final case class TopicListState(elems: Map[Long, StatefulElem])

/** One emitted ranked-list entry: topic i's list as of `bucketEnd`, in rank
  * order ([[repro.core.RankedList]]'s: δ_i descending, then id descending).
  */
final case class RankedEntry(topic: Int, bucketEnd: Long, rank: Int, elem: Long, delta: Double)

/** Structured-Streaming rendering of Algorithm 1: per-topic ranked lists
  * maintained by a stateful operator (`flatMapGroupsWithState`, update mode),
  * one group per topic, one micro-batch per stream bucket. The window upkeep
  * is its own; δ_i and the list order are [[repro.core.KSirEngine]]'s, so its
  * lists equal the engine's bit for bit.
  */
object StreamingRankedLists {

  /** Build the event log for a bucketized stream. Pure input preparation
    * (the generator knows every element's scores); the system under test is
    * the stateful operator in [[pipeline]].
    */
  def events(model: TopicModel, buckets: Seq[Bucket]): Seq[TopicEvent] = {
    val insertsOf = scala.collection.mutable.LongMap.empty[Seq[TopicEvent]]
    buckets.flatMap { b =>
      val ticks = (0 until model.z).map(t => TopicEvent(t, b.endTs, None))
      // The engine's replay order: a reference resolves only to an element seen before it.
      val rows = b.replayOrder.toSeq.flatMap { e =>
        val bag = e.wordFreqs
        val inserts = e.topics.toSeq.map { case (t, pe) =>
          TopicEvent(t, b.endTs, Some(StatefulElem(e.id, e.ts, semantic(model, bag, t, pe), pe, Nil)))
        }
        val refs = for (pid <- e.refs.toSeq; ev <- insertsOf.getOrElse(pid, Nil); p <- ev.elem) yield {
          val child = ChildEntry(e.id, e.ts, e.topics(ev.topic))
          TopicEvent(ev.topic, b.endTs, Some(p.copy(children = List(child))))
        }
        insertsOf(e.id) = inserts
        inserts ++ refs
      }
      rows ++ ticks
    }
  }

  /** R_i(e) for one topic from e's word bag — Σ_w −γ(w,e)·p_i(w,e)·log p_i(w,e). */
  def semantic(model: TopicModel, bag: SparseVec, topic: Int, pe: Double): Double =
    ActiveElement.rowSum(ActiveElement.sigmaRow(model, bag, topic, pe))

  /** The stateful dataflow: events keyed by topic, state = the topic's list,
    * output = the top-`topN` ranked entries after each bucket.
    */
  def pipeline(
      spark: SparkSession,
      eventsDs: Dataset[TopicEvent],
      window: Long,
      lambda: Double,
      eta: Double,
      topN: Int,
  ): Dataset[RankedEntry] = {
    import spark.implicits._
    eventsDs
      .groupByKey(_.topic)
      .flatMapGroupsWithState(OutputMode.Update(), GroupStateTimeout.NoTimeout)(
        updateTopic(window, lambda, eta, topN))
  }

  private[spark] def updateTopic(window: Long, lambda: Double, eta: Double, topN: Int)(
      topic: Int,
      rows: Iterator[TopicEvent],
      state: GroupState[TopicListState],
  ): Iterator[RankedEntry] = {
    var elems = state.getOption.map(_.elems).getOrElse(Map.empty[Long, StatefulElem])
    var bucketEnd = Long.MinValue
    // The engine's replay order: an insert at (ts, 0, id), a reference c→p at
    // (c.ts, 1, c.id), so each parent's children arrive as in the engine. An
    // absent id takes the event's entry; a present one appends the event's
    // children.
    rows.toSeq.sortBy(_.elem.fold((0L, 0, 0L)) { e =>
      e.children.headOption.fold((e.ts, 0, e.id))(c => (c.childTs, 1, c.childId))
    }).foreach { ev =>
      bucketEnd = math.max(bucketEnd, ev.bucketEnd)
      ev.elem.foreach { e =>
        elems += e.id -> elems.get(e.id).fold(e) { old =>
          old.copy(children = old.children ++ e.children)
        }
      }
    }
    val windowStart = bucketEnd - window + 1
    elems = elems.flatMap { case (id, e) =>
      val children = e.children.filter(_.childTs >= windowStart)
      if (e.ts >= windowStart || children.nonEmpty) Some(id -> e.copy(children = children)) else None
    }
    state.update(TopicListState(elems))

    val list = new RankedList
    elems.valuesIterator.foreach { e =>
      list.add(ActiveElement.delta(lambda, eta, e.rScore, e.pe, e.children.foldLeft(0.0)(_ + _.pChild)), e.id)
    }
    list.iterator.take(topN).zipWithIndex.map { case ((d, id), i) =>
      RankedEntry(topic, bucketEnd, i + 1, id, d)
    }
  }
}
