// Generated by the Green-Marl → Pregel compiler from procedure "bipartite_matching".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class BipartiteMatchingComputation extends BasicComputation<IntWritable, BipartiteMatchingValue, NullWritable, BipartiteMatchingMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, BipartiteMatchingValue, NullWritable> vertex, Iterable<BipartiteMatchingMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 1: { // state0
                vertex.getValue().match = -1;
                break;
            }
            case 3: { // state3
                vertex.getValue().suitor = -1;
                if ((vertex.getValue().is_boy && (vertex.getValue().match == -1))) {
                    for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                        BipartiteMatchingMessage m = new BipartiteMatchingMessage();
                        m.f0 = vertex.getId().get();
                        sendMessage(e.getTargetVertexId(), m);
                    }
                }
                break;
            }
            case 5: { // state4_recv
                int b = -1;
                for (BipartiteMatchingMessage m : messages) {
                    if (m.type == 0) {
                        if ((vertex.getValue().match == -1)) {
                            vertex.getValue().suitor = (int) m.f0;
                        }
                    }
                }
                if ((!vertex.getValue().is_boy && (vertex.getValue().suitor != -1))) {
                    aggregate("_r2_|=", new BooleanWritable(true));
                }
                if ((!vertex.getValue().is_boy && (vertex.getValue().suitor != -1))) {
                    b = vertex.getValue().suitor;
                    if ((b) != -1) {
                        BipartiteMatchingMessage m = new BipartiteMatchingMessage();
                        m.f0 = vertex.getId().get();
                        sendMessage(new IntWritable(b), m);
                    }
                }
                break;
            }
            case 11: { // state9_recv
                int g = -1;
                for (BipartiteMatchingMessage m : messages) {
                    if (m.type == 1) {
                        vertex.getValue().suitor = (int) m.f0;
                    }
                }
                if (((vertex.getValue().is_boy && (vertex.getValue().match == -1)) && (vertex.getValue().suitor != -1))) {
                    g = vertex.getValue().suitor;
                    vertex.getValue().match = g;
                    if ((g) != -1) {
                        BipartiteMatchingMessage m = new BipartiteMatchingMessage();
                        m.f0 = vertex.getId().get();
                        sendMessage(new IntWritable(g), m);
                    }
                    aggregate("count_+=", new LongWritable(1L));
                }
                break;
            }
            case 14: { // state12_recv
                for (BipartiteMatchingMessage m : messages) {
                    if (m.type == 2) {
                        vertex.getValue().match = (int) m.f0;
                    }
                }
                break;
            }
        }
    }
}

public class BipartiteMatchingMaster extends DefaultMasterCompute {
    int _state = 0;
    long count;
    boolean fin;
    boolean _r2;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("count", LongOverwriteAggregator.class);
        registerPersistentAggregator("fin", BooleanOverwriteAggregator.class);
        registerPersistentAggregator("_r2", BooleanOverwriteAggregator.class);
        registerAggregator("_r2_|=", BooleanOrAggregator.class);
        registerAggregator("count_+=", LongSumAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: {
                    count = 0L;
                    fin = false;
                    _state = 1; break;
                }
                case 1: { // vertex state "state0"
                    setAggregatedValue("_state", new IntWritable(1));
                    _state = 2; return;
                }
                case 2: {
                    _state = (!fin) ? 3 : 16; break;
                }
                case 3: { // vertex state "state3"
                    setAggregatedValue("_state", new IntWritable(3));
                    _state = 4; return;
                }
                case 4: {
                    _state = 5; break;
                }
                case 5: { // vertex state "state4_recv"
                    setAggregatedValue("_state", new IntWritable(5));
                    _state = 6; return;
                }
                case 6: {
                    _r2 = false;
                    _state = 7; break;
                }
                case 7: {
                    _state = 8; break;
                }
                case 8: {
                    _r2 = ((BooleanWritable) getAggregatedValue("_r2_|=")).get();
                    _state = 9; break;
                }
                case 9: {
                    fin = !_r2;
                    _state = 10; break;
                }
                case 10: {
                    _state = 11; break;
                }
                case 11: { // vertex state "state9_recv"
                    setAggregatedValue("_state", new IntWritable(11));
                    _state = 12; return;
                }
                case 12: {
                    _state = 13; break;
                }
                case 13: {
                    count += ((LongWritable) getAggregatedValue("count_+=")).get();
                    _state = 14; break;
                }
                case 14: { // vertex state "state12_recv"
                    setAggregatedValue("_state", new IntWritable(14));
                    _state = 15; return;
                }
                case 15: {
                    _state = 2; break;
                }
                case 16: {
                    // procedure result: count
                    haltComputation(); return;
                    haltComputation(); return;
                }
            }
        }
    }
}

public class BipartiteMatchingValue implements Writable {
    public boolean is_boy;
    public int match;
    public int suitor;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeBoolean(is_boy);
        out.writeInt(match);
        out.writeInt(suitor);
    }
    public void readFields(DataInput in) throws IOException {
        is_boy = in.readBoolean();
        match = in.readInt();
        suitor = in.readInt();
    }
}

public class BipartiteMatchingMessage implements Writable {
    public byte type;
    public long f0;
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        out.writeLong(f0);
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        f0 = in.readLong();
    }
}
