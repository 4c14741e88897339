// Generated by the Green-Marl → Pregel compiler from procedure "sssp".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class SsspComputation extends BasicComputation<IntWritable, SsspValue, NullWritable, SsspMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, SsspValue, NullWritable> vertex, Iterable<SsspMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 1: { // state0
                int root = ((IntWritable) getAggregatedValue("root")).get();
                vertex.getValue().dist = ((vertex.getId().get() == root) ? 0L : Long.MAX_VALUE);
                vertex.getValue().updated = ((vertex.getId().get() == root) ? true : false);
                vertex.getValue().dist_nxt = vertex.getValue().dist;
                break;
            }
            case 6: { // state5
                boolean _is_first1 = ((BooleanWritable) getAggregatedValue("_is_first1")).get();
                if (!_is_first1) {
                    for (SsspMessage m : messages) {
                        vertex.getValue().dist_nxt = Math.min(vertex.getValue().dist_nxt, m.f0);
                    }
                    vertex.getValue().updated = (vertex.getValue().dist_nxt < vertex.getValue().dist);
                    if (vertex.getValue().updated) {
                        vertex.getValue().dist = vertex.getValue().dist_nxt;
                    }
                    vertex.getValue().dist_nxt = vertex.getValue().dist;
                    if (vertex.getValue().updated) {
                        aggregate("_r3_|=", new BooleanWritable(true));
                    }
                }
                if (vertex.getValue().updated) {
                    for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                        SsspMessage m = new SsspMessage();
                        m.f0 = (vertex.getValue().dist + e.getValue().len);
                        sendMessage(e.getTargetVertexId(), m);
                    }
                }
                break;
            }
        }
    }
}

public class SsspMaster extends DefaultMasterCompute {
    int _state = 0;
    int root;
    boolean fin;
    boolean _r3;
    boolean _is_first1;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("root", IntOverwriteAggregator.class);
        registerPersistentAggregator("fin", BooleanOverwriteAggregator.class);
        registerPersistentAggregator("_r3", BooleanOverwriteAggregator.class);
        registerPersistentAggregator("_is_first1", BooleanOverwriteAggregator.class);
        registerAggregator("_r3_|=", BooleanOrAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: {
                    fin = false;
                    _state = 1; break;
                }
                case 1: { // vertex state "state0"
                    setAggregatedValue("_state", new IntWritable(1));
                    setAggregatedValue("root", new IntWritable(root));
                    _state = 2; return;
                }
                case 2: {
                    _state = 3; break;
                }
                case 3: {
                    _state = 17; break;
                }
                case 4: {
                    _state = (!fin) ? 5 : 14; break;
                }
                case 5: {
                    fin = true;
                    _state = 6; break;
                }
                case 6: { // vertex state "state5"
                    setAggregatedValue("_state", new IntWritable(6));
                    setAggregatedValue("_is_first1", new BooleanWritable(_is_first1));
                    _state = 7; return;
                }
                case 7: {
                    _state = 15; break;
                }
                case 8: {
                    _state = 9; break;
                }
                case 9: {
                    _r3 = false;
                    _state = 10; break;
                }
                case 10: {
                    _state = 11; break;
                }
                case 11: {
                    _r3 = ((BooleanWritable) getAggregatedValue("_r3_|=")).get();
                    _state = 12; break;
                }
                case 12: {
                    fin = !_r3;
                    _state = 13; break;
                }
                case 13: {
                    _state = 4; break;
                }
                case 14: {
                    haltComputation(); return;
                }
                case 15: {
                    _state = (_is_first1) ? 16 : 8; break;
                }
                case 16: {
                    _is_first1 = false;
                    _state = 6; break;
                }
                case 17: {
                    _is_first1 = true;
                    _state = 4; break;
                }
            }
        }
    }
}

public class SsspValue implements Writable {
    public long dist;
    public boolean updated;
    public long dist_nxt;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeLong(dist);
        out.writeBoolean(updated);
        out.writeLong(dist_nxt);
    }
    public void readFields(DataInput in) throws IOException {
        dist = in.readLong();
        updated = in.readBoolean();
        dist_nxt = in.readLong();
    }
}

public class SsspMessage implements Writable {
    public long f0;
    public void write(DataOutput out) throws IOException {
        out.writeLong(f0);
    }
    public void readFields(DataInput in) throws IOException {
        f0 = in.readLong();
    }
}
