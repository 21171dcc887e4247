package repro.core

/** The in-window children of an active element, in arrival order, read
  * through its public accessors.
  */
object Children {

  /** (id, ts) of each child. */
  def of(ae: ActiveElement): Seq[(Long, Long)] = (0 until ae.childCount).map(c => (ae.childId(c), ae.childTs(c)))

  def ids(ae: ActiveElement): Seq[Long] = of(ae).map(_._1)
}
