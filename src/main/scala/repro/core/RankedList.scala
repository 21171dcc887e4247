package repro.core

/** One ranked list RL_i of Algorithm 1: the active elements with mass on
  * topic i as (δ_i(e), id) entries, ordered by score descending under
  * `java.lang.Double.compare` (so −0.0 comes after 0.0), then by id
  * descending. It is a set: adding an entry already present, or removing an
  * absent one, does nothing.
  *
  * Entries live in an ordered run of sorted chunks of at most `Cap` entries
  * each, none empty, so an update shifts at most one chunk rather than the
  * whole list; see DESIGN §6d.
  */
final class RankedList {
  import RankedList._

  private var chunks = new Array[Chunk](4)
  private var nChunks = 0
  private var n = 0

  def size: Int = n

  private[core] def chunkCount: Int = nChunks

  private[core] def chunk(c: Int): Chunk = chunks(c)

  /** Inserts (score, id) unless an equal entry is present. */
  def add(score: Double, id: Long): Unit = {
    val c =
      if (nChunks == 0) { insertChunk(0, new Chunk); 0 }
      else math.min(findChunk(score, id), nChunks - 1)
    var ch = chunks(c)
    var p = ch.lowerBound(score, id)
    if (p < ch.n && order(score, id, ch.scores(p), ch.ids(p)) == 0) return
    if (ch.n == Cap) {
      val upper = new Chunk
      System.arraycopy(ch.scores, Half, upper.scores, 0, Half)
      System.arraycopy(ch.ids, Half, upper.ids, 0, Half)
      upper.n = Half
      ch.n = Half
      insertChunk(c + 1, upper)
      if (p > Half) { ch = upper; p -= Half }
    }
    val move = ch.n - p
    System.arraycopy(ch.scores, p, ch.scores, p + 1, move)
    System.arraycopy(ch.ids, p, ch.ids, p + 1, move)
    ch.scores(p) = score
    ch.ids(p) = id
    ch.n += 1
    n += 1
  }

  /** Removes the entry (score, id) if present. */
  def remove(score: Double, id: Long): Unit = {
    val c = findChunk(score, id)
    if (c == nChunks) return
    val ch = chunks(c)
    val p = ch.lowerBound(score, id)
    if (order(score, id, ch.scores(p), ch.ids(p)) != 0) return
    val move = ch.n - p - 1
    System.arraycopy(ch.scores, p + 1, ch.scores, p, move)
    System.arraycopy(ch.ids, p + 1, ch.ids, p, move)
    ch.n -= 1
    n -= 1
    if (ch.n == 0) {
      System.arraycopy(chunks, c + 1, chunks, c, nChunks - c - 1)
      nChunks -= 1
      chunks(nChunks) = null
    }
  }

  /** The entries in list order. Not valid across an update. */
  def iterator: Iterator[(Double, Long)] = new Iterator[(Double, Long)] {
    private var c = 0
    private var p = 0
    def hasNext: Boolean = c < nChunks
    def next(): (Double, Long) = {
      if (!hasNext) throw new NoSuchElementException("ranked list exhausted")
      val ch = chunks(c)
      val e = (ch.scores(p), ch.ids(p))
      p += 1
      if (p == ch.n) { c += 1; p = 0 }
      e
    }
  }

  /** The first chunk whose last entry is not before (score, id), or
    * `nChunks` when every entry is.
    */
  private def findChunk(score: Double, id: Long): Int = {
    var lo = 0
    var hi = nChunks
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val ch = chunks(mid)
      if (order(ch.scores(ch.n - 1), ch.ids(ch.n - 1), score, id) < 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  private def insertChunk(c: Int, ch: Chunk): Unit = {
    if (nChunks == chunks.length) chunks = java.util.Arrays.copyOf(chunks, 2 * nChunks)
    System.arraycopy(chunks, c, chunks, c + 1, nChunks - c)
    chunks(c) = ch
    nChunks += 1
  }
}

object RankedList {

  /** Entries per chunk, so an update shifts at most this many. */
  private val Cap = 64
  private val Half = Cap / 2

  /** Negative when (s1, id1) comes before (s2, id2) in list order, 0 when
    * they are the same entry.
    */
  private def order(s1: Double, id1: Long, s2: Double, id2: Long): Int = {
    val c = java.lang.Double.compare(s2, s1)
    if (c != 0) c else java.lang.Long.compare(id2, id1)
  }

  /** A sorted run of `n` entries in slots `0 until n`. */
  private[core] final class Chunk {
    val scores = new Array[Double](Cap)
    val ids = new Array[Long](Cap)
    var n = 0

    /** The first slot whose entry is not before (score, id), or `n`. */
    def lowerBound(score: Double, id: Long): Int = {
      var lo = 0
      var hi = n
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (order(scores(mid), ids(mid), score, id) < 0) lo = mid + 1 else hi = mid
      }
      lo
    }
  }
}
