// Generated by the Green-Marl → Pregel compiler from procedure "hits".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class HitsComputation extends BasicComputation<IntWritable, HitsValue, NullWritable, HitsMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, HitsValue, NullWritable> vertex, Iterable<HitsMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 0: { // in_nbr_send
                for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                    HitsMessage m = new HitsMessage();
                    m.f0 = vertex.getId().get();
                    sendMessage(e.getTargetVertexId(), m);
                }
                break;
            }
            case 1: { // in_nbr_collect
                vertex.getValue().in_nbrs = collectSenderIds(messages);
                vertex.getValue().auth = 1.0;
                vertex.getValue().hub = 1.0;
                break;
            }
            case 6: { // state6
                vertex.getValue()._t6 = 0.0;
                for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                    HitsMessage m = new HitsMessage();
                    m.f0 = Double.doubleToLongBits(vertex.getValue().hub);
                    sendMessage(e.getTargetVertexId(), m);
                }
                break;
            }
            case 8: { // state7_recv
                for (HitsMessage m : messages) {
                    if (m.type == 1) {
                        vertex.getValue()._t6 += Double.longBitsToDouble(m.f0);
                    }
                }
                vertex.getValue().auth = vertex.getValue()._t6;
                aggregate("_r2_+=", new DoubleWritable(vertex.getValue().auth));
                break;
            }
            case 15: { // state15
                double na = ((DoubleWritable) getAggregatedValue("na")).get();
                vertex.getValue().auth = (vertex.getValue().auth / na);
                break;
            }
            case 16: { // state16
                vertex.getValue()._t7 = 0.0;
                for (int i = 0; i < vertex.getValue().in_nbrs.length; i++) {
                    HitsMessage m = new HitsMessage();
                    m.f0 = Double.doubleToLongBits(vertex.getValue().auth);
                    sendMessage(new IntWritable(vertex.getValue().in_nbrs[i]), m);
                }
                break;
            }
            case 18: { // state17_recv
                for (HitsMessage m : messages) {
                    if (m.type == 2) {
                        vertex.getValue()._t7 += Double.longBitsToDouble(m.f0);
                    }
                }
                vertex.getValue().hub = vertex.getValue()._t7;
                aggregate("_r3_+=", new DoubleWritable(vertex.getValue().hub));
                break;
            }
            case 25: { // state25
                double nh = ((DoubleWritable) getAggregatedValue("nh")).get();
                vertex.getValue().hub = (vertex.getValue().hub / nh);
                break;
            }
        }
    }
}

public class HitsMaster extends DefaultMasterCompute {
    int _state = 0;
    long max_iter;
    long k;
    double na;
    double _r2;
    double nh;
    double _r3;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("max_iter", LongOverwriteAggregator.class);
        registerPersistentAggregator("k", LongOverwriteAggregator.class);
        registerPersistentAggregator("na", DoubleOverwriteAggregator.class);
        registerPersistentAggregator("_r2", DoubleOverwriteAggregator.class);
        registerPersistentAggregator("nh", DoubleOverwriteAggregator.class);
        registerPersistentAggregator("_r3", DoubleOverwriteAggregator.class);
        registerAggregator("_r2_+=", DoubleSumAggregator.class);
        registerAggregator("_r3_+=", DoubleSumAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: { // vertex state "in_nbr_send"
                    setAggregatedValue("_state", new IntWritable(0));
                    _state = 1; return;
                }
                case 1: { // vertex state "in_nbr_collect"
                    setAggregatedValue("_state", new IntWritable(1));
                    _state = 2; return;
                }
                case 2: {
                    _state = 3; break;
                }
                case 3: {
                    _state = 4; break;
                }
                case 4: {
                    k = 0L;
                    _state = 5; break;
                }
                case 5: {
                    _state = ((k < max_iter)) ? 6 : 28; break;
                }
                case 6: { // vertex state "state6"
                    setAggregatedValue("_state", new IntWritable(6));
                    _state = 7; return;
                }
                case 7: {
                    _state = 8; break;
                }
                case 8: { // vertex state "state7_recv"
                    setAggregatedValue("_state", new IntWritable(8));
                    _state = 9; return;
                }
                case 9: {
                    _state = 10; break;
                }
                case 10: {
                    na = 0.0;
                    _r2 = 0.0;
                    _state = 11; break;
                }
                case 11: {
                    _state = 12; break;
                }
                case 12: {
                    _r2 += ((DoubleWritable) getAggregatedValue("_r2_+=")).get();
                    _state = 13; break;
                }
                case 13: {
                    na = _r2;
                    _state = 14; break;
                }
                case 14: {
                    _state = ((na > 0.0)) ? 15 : 16; break;
                }
                case 15: { // vertex state "state15"
                    setAggregatedValue("_state", new IntWritable(15));
                    setAggregatedValue("na", new DoubleWritable(na));
                    _state = 16; return;
                }
                case 16: { // vertex state "state16"
                    setAggregatedValue("_state", new IntWritable(16));
                    _state = 17; return;
                }
                case 17: {
                    _state = 18; break;
                }
                case 18: { // vertex state "state17_recv"
                    setAggregatedValue("_state", new IntWritable(18));
                    _state = 19; return;
                }
                case 19: {
                    _state = 20; break;
                }
                case 20: {
                    nh = 0.0;
                    _r3 = 0.0;
                    _state = 21; break;
                }
                case 21: {
                    _state = 22; break;
                }
                case 22: {
                    _r3 += ((DoubleWritable) getAggregatedValue("_r3_+=")).get();
                    _state = 23; break;
                }
                case 23: {
                    nh = _r3;
                    _state = 24; break;
                }
                case 24: {
                    _state = ((nh > 0.0)) ? 25 : 26; break;
                }
                case 25: { // vertex state "state25"
                    setAggregatedValue("_state", new IntWritable(25));
                    setAggregatedValue("nh", new DoubleWritable(nh));
                    _state = 26; return;
                }
                case 26: {
                    k = (k + 1L);
                    _state = 27; break;
                }
                case 27: {
                    _state = 5; break;
                }
                case 28: {
                    haltComputation(); return;
                }
            }
        }
    }
}

public class HitsValue implements Writable {
    public double auth;
    public double hub;
    public double _t6;
    public double _t7;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeDouble(auth);
        out.writeDouble(hub);
        out.writeDouble(_t6);
        out.writeDouble(_t7);
    }
    public void readFields(DataInput in) throws IOException {
        auth = in.readDouble();
        hub = in.readDouble();
        _t6 = in.readDouble();
        _t7 = in.readDouble();
    }
}

public class HitsMessage implements Writable {
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
