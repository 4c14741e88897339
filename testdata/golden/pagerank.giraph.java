// Generated by the Green-Marl → Pregel compiler from procedure "pagerank".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class PagerankComputation extends BasicComputation<IntWritable, PagerankValue, NullWritable, PagerankMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, PagerankValue, NullWritable> vertex, Iterable<PagerankMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 1: { // state0
                double N = ((DoubleWritable) getAggregatedValue("N")).get();
                vertex.getValue().pg_rank = (1.0 / N);
                break;
            }
            case 3: { // state2
                double d = ((DoubleWritable) getAggregatedValue("d")).get();
                double N = ((DoubleWritable) getAggregatedValue("N")).get();
                boolean _is_first1 = ((BooleanWritable) getAggregatedValue("_is_first1")).get();
                double val = 0.0;
                if (!_is_first1) {
                    for (PagerankMessage m : messages) {
                        vertex.getValue()._t2 += Double.longBitsToDouble(m.f0);
                    }
                    val = (((1.0 - d) / N) + (d * vertex.getValue()._t2));
                    aggregate("diff_+=", new DoubleWritable(((val > vertex.getValue().pg_rank) ? (val - vertex.getValue().pg_rank) : (vertex.getValue().pg_rank - val))));
                    vertex.getValue().pg_rank = val;
                }
                vertex.getValue()._t2 = 0.0;
                for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                    PagerankMessage m = new PagerankMessage();
                    m.f0 = Double.doubleToLongBits((vertex.getValue().pg_rank / vertex.getNumEdges()));
                    sendMessage(e.getTargetVertexId(), m);
                }
                break;
            }
        }
    }
}

public class PagerankMaster extends DefaultMasterCompute {
    int _state = 0;
    double e;
    double d;
    long max_iter;
    double diff;
    long cnt;
    double N;
    boolean _is_first1;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("e", DoubleOverwriteAggregator.class);
        registerPersistentAggregator("d", DoubleOverwriteAggregator.class);
        registerPersistentAggregator("max_iter", LongOverwriteAggregator.class);
        registerPersistentAggregator("diff", DoubleOverwriteAggregator.class);
        registerPersistentAggregator("cnt", LongOverwriteAggregator.class);
        registerPersistentAggregator("N", DoubleOverwriteAggregator.class);
        registerPersistentAggregator("_is_first1", BooleanOverwriteAggregator.class);
        registerAggregator("diff_+=", DoubleSumAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: {
                    diff = 0.0;
                    cnt = 0L;
                    N = getTotalNumVertices();
                    _state = 1; break;
                }
                case 1: { // vertex state "state0"
                    setAggregatedValue("_state", new IntWritable(1));
                    setAggregatedValue("N", new DoubleWritable(N));
                    _state = 13; return;
                }
                case 2: {
                    diff = 0.0;
                    _state = 3; break;
                }
                case 3: { // vertex state "state2"
                    setAggregatedValue("_state", new IntWritable(3));
                    setAggregatedValue("d", new DoubleWritable(d));
                    setAggregatedValue("N", new DoubleWritable(N));
                    setAggregatedValue("_is_first1", new BooleanWritable(_is_first1));
                    _state = 4; return;
                }
                case 4: {
                    _state = 5; break;
                }
                case 5: {
                    _state = 11; break;
                }
                case 6: {
                    _state = 7; break;
                }
                case 7: {
                    diff += ((DoubleWritable) getAggregatedValue("diff_+=")).get();
                    _state = 8; break;
                }
                case 8: {
                    cnt = (cnt + 1L);
                    _state = 9; break;
                }
                case 9: {
                    _state = (((diff > e) && (cnt < max_iter))) ? 2 : 10; break;
                }
                case 10: {
                    haltComputation(); return;
                }
                case 11: {
                    _state = (_is_first1) ? 12 : 6; break;
                }
                case 12: {
                    _is_first1 = false;
                    _state = 3; break;
                }
                case 13: {
                    _is_first1 = true;
                    _state = 2; break;
                }
            }
        }
    }
}

public class PagerankValue implements Writable {
    public double pg_rank;
    public double _t2;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeDouble(pg_rank);
        out.writeDouble(_t2);
    }
    public void readFields(DataInput in) throws IOException {
        pg_rank = in.readDouble();
        _t2 = in.readDouble();
    }
}

public class PagerankMessage implements Writable {
    public long f0;
    public void write(DataOutput out) throws IOException {
        out.writeLong(f0);
    }
    public void readFields(DataInput in) throws IOException {
        f0 = in.readLong();
    }
}
